package cgen

import (
	"fmt"
	"math"
)

// Lexer turns C source text into tokens. Preprocessor directives are not
// interpreted: a line starting with '#' is skipped, since the benchmark
// programs arrive preprocessed (as the paper's do).
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
	errs []error
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (lx *Lexer) Errors() []error { return lx.errs }

func (lx *Lexer) errorf(format string, args ...any) {
	lx.errs = append(lx.errs, fmt.Errorf("%d:%d: %s", lx.line, lx.col, fmt.Sprintf(format, args...)))
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peek2() byte {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdent(c byte) bool  { return isLetter(c) || isDigit(c) }

// skipSpace consumes whitespace, comments and preprocessor lines.
func (lx *Lexer) skipSpace() {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '#' && lx.col == 1:
			// Preprocessor directive: skip to end of line, honouring
			// backslash continuations.
			for lx.pos < len(lx.src) {
				c := lx.advance()
				if c == '\\' && lx.peek() == '\n' {
					lx.advance()
					continue
				}
				if c == '\n' {
					break
				}
			}
		case c == '/' && lx.peek2() == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			lx.advance()
			lx.advance()
			for lx.pos < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return
		}
	}
}

// Next returns the next token. At end of input it returns EOF forever.
func (lx *Lexer) Next() Token {
	for {
		lx.skipSpace()
		tok := Token{Line: int32(lx.line), Col: int32(lx.col), Off: int32(lx.pos)}
		if lx.pos >= len(lx.src) {
			tok.Kind = EOF
			return tok
		}
		c := lx.peek()
		switch {
		case isLetter(c):
			for lx.pos < len(lx.src) && isIdent(lx.peek()) {
				lx.advance()
			}
			lx.finish(&tok)
			if k, ok := keywords[tok.Text(lx.src)]; ok {
				tok.Kind = k
			} else {
				tok.Kind = Ident
			}
			return tok
		case isDigit(c) || (c == '.' && isDigit(lx.peek2())):
			return lx.number(tok)
		case c == '\'':
			return lx.charLit(tok)
		case c == '"':
			return lx.strLit(tok)
		}
		if tok, ok := lx.operator(tok); ok {
			return tok
		}
	}
}

// finish ends tok's text at the current position.
func (lx *Lexer) finish(tok *Token) { tok.Len = int32(lx.pos) - tok.Off }

func (lx *Lexer) number(tok Token) Token {
	isFloat := false
	if lx.peek() == '0' && (lx.peek2() == 'x' || lx.peek2() == 'X') {
		lx.advance()
		lx.advance()
		for lx.pos < len(lx.src) && (isDigit(lx.peek()) || (lx.peek()|0x20 >= 'a' && lx.peek()|0x20 <= 'f')) {
			lx.advance()
		}
	} else {
		for lx.pos < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		if lx.peek() == '.' {
			isFloat = true
			lx.advance()
			for lx.pos < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		if lx.peek() == 'e' || lx.peek() == 'E' {
			isFloat = true
			lx.advance()
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.advance()
			}
			for lx.pos < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
	}
	// integer/float suffixes
	for lx.pos < len(lx.src) {
		switch lx.peek() {
		case 'u', 'U', 'l', 'L', 'f', 'F':
			lx.advance()
			continue
		}
		break
	}
	lx.finish(&tok)
	if isFloat {
		tok.Kind = FloatLit
	} else {
		tok.Kind = IntLit
	}
	return tok
}

func (lx *Lexer) charLit(tok Token) Token {
	lx.advance() // opening quote
	tok.Off = int32(lx.pos)
	for lx.pos < len(lx.src) && lx.peek() != '\'' {
		if lx.peek() == '\\' {
			lx.advance()
		}
		if lx.pos < len(lx.src) {
			lx.advance()
		}
	}
	lx.finish(&tok)
	if lx.pos < len(lx.src) {
		lx.advance() // closing quote
	} else {
		lx.errorf("unterminated character literal")
	}
	tok.Kind = CharLit
	return tok
}

func (lx *Lexer) strLit(tok Token) Token {
	lx.advance() // opening quote
	tok.Off = int32(lx.pos)
	for lx.pos < len(lx.src) && lx.peek() != '"' {
		if lx.peek() == '\\' {
			lx.advance()
		}
		if lx.pos < len(lx.src) {
			lx.advance()
		}
	}
	lx.finish(&tok)
	if lx.pos < len(lx.src) {
		lx.advance() // closing quote
	} else {
		lx.errorf("unterminated string literal")
	}
	tok.Kind = StrLit
	return tok
}

// twoCharOps maps a leading operator byte to its two-character extensions.
type opExt struct {
	next byte
	kind Kind
}

var operatorTable = map[byte]struct {
	kind Kind    // kind when standing alone
	exts []opExt // two-character extensions
}{
	'(': {kind: LParen},
	')': {kind: RParen},
	'{': {kind: LBrace},
	'}': {kind: RBrace},
	'[': {kind: LBracket},
	']': {kind: RBracket},
	';': {kind: Semi},
	',': {kind: Comma},
	':': {kind: Colon},
	'?': {kind: Question},
	'~': {kind: Tilde},
	'+': {kind: Plus, exts: []opExt{{'+', Inc}, {'=', AddAssign}}},
	'-': {kind: Minus, exts: []opExt{{'-', Dec}, {'=', SubAssign}, {'>', Arrow}}},
	'*': {kind: Star, exts: []opExt{{'=', MulAssign}}},
	'/': {kind: Slash, exts: []opExt{{'=', DivAssign}}},
	'%': {kind: Percent, exts: []opExt{{'=', ModAssign}}},
	'&': {kind: Amp, exts: []opExt{{'&', AndAnd}, {'=', AndAssign}}},
	'|': {kind: Pipe, exts: []opExt{{'|', OrOr}, {'=', OrAssign}}},
	'^': {kind: Caret, exts: []opExt{{'=', XorAssign}}},
	'!': {kind: Not, exts: []opExt{{'=', NotEq}}},
	'=': {kind: Assign, exts: []opExt{{'=', EqEq}}},
	'.': {kind: Dot},
}

// operator lexes an operator or punctuator. When the byte at tok starts no
// token, it consumes that byte's run, reports it, and returns false so
// that Next loops on: a recursive retry would take one stack frame per
// unexpected byte.
func (lx *Lexer) operator(tok Token) (Token, bool) {
	c := lx.advance()
	switch c {
	case '<':
		if lx.peek() == '<' {
			lx.advance()
			if lx.peek() == '=' {
				lx.advance()
				tok.Kind = ShlAssign
			} else {
				tok.Kind = Shl
			}
		} else if lx.peek() == '=' {
			lx.advance()
			tok.Kind = Le
		} else {
			tok.Kind = Lt
		}
		return tok, true
	case '>':
		if lx.peek() == '>' {
			lx.advance()
			if lx.peek() == '=' {
				lx.advance()
				tok.Kind = ShrAssign
			} else {
				tok.Kind = Shr
			}
		} else if lx.peek() == '=' {
			lx.advance()
			tok.Kind = Ge
		} else {
			tok.Kind = Gt
		}
		return tok, true
	case '.':
		if lx.peek() == '.' && lx.peek2() == '.' {
			lx.advance()
			lx.advance()
			tok.Kind = Ellipsis
			return tok, true
		}
		tok.Kind = Dot
		return tok, true
	}
	ent, ok := operatorTable[c]
	if !ok {
		n := 1
		for lx.pos < len(lx.src) && startsNoToken(lx.peek()) {
			lx.advance()
			n++
		}
		msg := fmt.Sprintf("unexpected character %q", c)
		if n > 1 {
			msg += fmt.Sprintf(" and %d more", n-1)
		}
		lx.errs = append(lx.errs, fmt.Errorf("%s: %s", tok.Pos(), msg))
		return tok, false
	}
	for _, e := range ent.exts {
		if lx.peek() == e.next {
			lx.advance()
			tok.Kind = e.kind
			return tok, true
		}
	}
	tok.Kind = ent.kind
	return tok, true
}

// startsNoToken reports whether c is neither space nor the first byte of
// any token.
func startsNoToken(c byte) bool {
	switch {
	case isIdent(c), c == '\'', c == '"', c == '<', c == '>',
		c == ' ', c == '\t', c == '\r', c == '\n':
		return false
	}
	_, ok := operatorTable[c]
	return !ok
}

// Tokenize lexes the whole input, excluding the final EOF. The tokens go
// into one buffer of a token per two source bytes: generated programs
// spend 2.8–2.9 bytes a token, whitespace included, so the buffer seldom
// grows. Token offsets are 32-bit, which bounds the source at 2 GiB.
func Tokenize(src string) ([]Token, []error) {
	if len(src) > math.MaxInt32 {
		return nil, []error{fmt.Errorf("source is %d bytes; the lexer takes at most %d", len(src), math.MaxInt32)}
	}
	lx := NewLexer(src)
	toks := make([]Token, 0, len(src)/2+1)
	for {
		t := lx.Next()
		if t.Kind == EOF {
			break
		}
		toks = append(toks, t)
	}
	return toks, lx.errs
}
