// Package cgen is a small C front end: a lexer, abstract syntax tree and
// recursive-descent parser for the subset of (preprocessed) C that
// Andersen's points-to analysis needs — declarations with full declarator
// syntax (pointers, arrays, function pointers), struct/union/enum and
// typedef declarations, function definitions, the statement forms, and the
// full expression grammar. Control flow is parsed faithfully but the
// points-to analysis is flow-insensitive, so clients mostly just walk every
// statement.
//
// It substitutes for the C front end the paper used on its 25 real C
// benchmarks; see DESIGN.md for the substitution argument.
package cgen

import "fmt"

// Kind classifies a lexical token.
type Kind int32

// Token kinds. Single-character operators use their own rune value space
// via the named constants below so the parser can switch on Kind alone.
const (
	EOF Kind = iota
	Ident
	TypeName // identifier known to be a typedef name (set by the parser feedback)
	IntLit
	FloatLit
	CharLit
	StrLit

	// keywords
	KwInt
	KwChar
	KwShort
	KwLong
	KwFloat
	KwDouble
	KwVoid
	KwUnsigned
	KwSigned
	KwStruct
	KwUnion
	KwEnum
	KwTypedef
	KwStatic
	KwExtern
	KwConst
	KwVolatile
	KwRegister
	KwAuto
	KwIf
	KwElse
	KwWhile
	KwFor
	KwDo
	KwReturn
	KwBreak
	KwContinue
	KwSwitch
	KwCase
	KwDefault
	KwGoto
	KwSizeof

	// punctuation and operators
	LParen
	RParen
	LBrace
	RBrace
	LBracket
	RBracket
	Semi
	Comma
	Colon
	Question
	Ellipsis

	Assign    // =
	AddAssign // +=
	SubAssign // -=
	MulAssign // *=
	DivAssign // /=
	ModAssign // %=
	AndAssign // &=
	OrAssign  // |=
	XorAssign // ^=
	ShlAssign // <<=
	ShrAssign // >>=

	Plus
	Minus
	Star
	Slash
	Percent
	Amp
	Pipe
	Caret
	Tilde
	Not
	Shl
	Shr
	Lt
	Gt
	Le
	Ge
	EqEq
	NotEq
	AndAnd
	OrOr
	Inc
	Dec
	Dot
	Arrow
)

var kindNames = map[Kind]string{
	EOF: "EOF", Ident: "identifier", TypeName: "type name",
	IntLit: "integer literal", FloatLit: "float literal",
	CharLit: "char literal", StrLit: "string literal",
	KwInt: "int", KwChar: "char", KwShort: "short", KwLong: "long",
	KwFloat: "float", KwDouble: "double", KwVoid: "void",
	KwUnsigned: "unsigned", KwSigned: "signed", KwStruct: "struct",
	KwUnion: "union", KwEnum: "enum", KwTypedef: "typedef",
	KwStatic: "static", KwExtern: "extern", KwConst: "const",
	KwVolatile: "volatile", KwRegister: "register", KwAuto: "auto",
	KwIf: "if", KwElse: "else", KwWhile: "while", KwFor: "for",
	KwDo: "do", KwReturn: "return", KwBreak: "break",
	KwContinue: "continue", KwSwitch: "switch", KwCase: "case",
	KwDefault: "default", KwGoto: "goto", KwSizeof: "sizeof",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}",
	LBracket: "[", RBracket: "]", Semi: ";", Comma: ",",
	Colon: ":", Question: "?", Ellipsis: "...",
	Assign: "=", AddAssign: "+=", SubAssign: "-=", MulAssign: "*=",
	DivAssign: "/=", ModAssign: "%=", AndAssign: "&=", OrAssign: "|=",
	XorAssign: "^=", ShlAssign: "<<=", ShrAssign: ">>=",
	Plus: "+", Minus: "-", Star: "*", Slash: "/", Percent: "%",
	Amp: "&", Pipe: "|", Caret: "^", Tilde: "~", Not: "!",
	Shl: "<<", Shr: ">>", Lt: "<", Gt: ">", Le: "<=", Ge: ">=",
	EqEq: "==", NotEq: "!=", AndAnd: "&&", OrOr: "||",
	Inc: "++", Dec: "--", Dot: ".", Arrow: "->",
}

// String names the token kind in error messages.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = map[string]Kind{
	"int": KwInt, "char": KwChar, "short": KwShort, "long": KwLong,
	"float": KwFloat, "double": KwDouble, "void": KwVoid,
	"unsigned": KwUnsigned, "signed": KwSigned, "struct": KwStruct,
	"union": KwUnion, "enum": KwEnum, "typedef": KwTypedef,
	"static": KwStatic, "extern": KwExtern, "const": KwConst,
	"volatile": KwVolatile, "register": KwRegister, "auto": KwAuto,
	"if": KwIf, "else": KwElse, "while": KwWhile, "for": KwFor,
	"do": KwDo, "return": KwReturn, "break": KwBreak,
	"continue": KwContinue, "switch": KwSwitch, "case": KwCase,
	"default": KwDefault, "goto": KwGoto, "sizeof": KwSizeof,
}

// Token is one lexical token: its kind, its source position, and where its
// spelling lies in the source. It holds no pointer, so a token buffer is 20
// bytes a token and the garbage collector never scans it.
type Token struct {
	Kind Kind
	Line int32
	Col  int32
	// Off and Len place the token's text in the source: the spelling of an
	// identifier, keyword or number, a character or string literal without
	// its quotes, and the empty string at Off for an operator or EOF.
	Off int32
	Len int32
}

// Text returns the token's spelling in src, the source it was lexed from.
func (t Token) Text(src string) string { return src[t.Off : t.Off+t.Len] }

// Pos renders the token's position for diagnostics.
func (t Token) Pos() string { return fmt.Sprintf("%d:%d", t.Line, t.Col) }
