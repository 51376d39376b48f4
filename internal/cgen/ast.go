package cgen

// This file defines the abstract syntax tree. The analysis is
// flow-insensitive, so the AST favours simplicity over fidelity: types are
// flattened to the shape information Andersen's analysis needs (pointer
// depth, array-ness, function signatures, struct identity) and constant
// expressions are kept only to be walked.

// TypeKind classifies the flattened type representation.
type TypeKind int

const (
	// TBase is any scalar base type (int, char, float, enum, ...).
	TBase TypeKind = iota
	// TVoid is void.
	TVoid
	// TPointer is a pointer; Elem is the pointee.
	TPointer
	// TArray is an array; Elem is the element type.
	TArray
	// TFunc is a function type; Ret and Params describe the signature.
	TFunc
	// TStruct is a struct or union type; Tag identifies it.
	TStruct
)

// Type is a flattened C type.
type Type struct {
	Kind     TypeKind
	Elem     *Type   // pointee or element type
	Ret      *Type   // function return type
	Params   []*Type // function parameter types
	Variadic bool    // function declared with ...
	Union    bool    // a TStruct spelled union
	Tag      string  // struct/union tag or typedef spelling
	Size     Expr    // array size expression, nil when omitted
}

// Ptr returns a pointer-to-t type.
func Ptr(t *Type) *Type { return &Type{Kind: TPointer, Elem: t} }

var (
	// IntType is the canonical scalar type.
	IntType = &Type{Kind: TBase, Tag: "int"}
	// VoidType is void.
	VoidType = &Type{Kind: TVoid}
)

// IsPointerLike reports whether values of the type carry locations: a
// pointer, or an array (which decays to a pointer to its collapsed
// element).
func (t *Type) IsPointerLike() bool {
	return t != nil && (t.Kind == TPointer || t.Kind == TArray)
}

// String renders the type, mainly for tests and diagnostics.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case TBase:
		if t.Tag != "" {
			return t.Tag
		}
		return "int"
	case TVoid:
		return "void"
	case TPointer:
		return t.Elem.String() + "*"
	case TArray:
		return t.Elem.String() + "[]"
	case TStruct:
		if t.Union {
			return "union " + t.Tag
		}
		return "struct " + t.Tag
	case TFunc:
		s := t.Ret.String() + "("
		for i, p := range t.Params {
			if i > 0 {
				s += ","
			}
			s += p.String()
		}
		if t.Variadic {
			s += ",..."
		}
		return s + ")"
	}
	return "?"
}

// File is a parsed translation unit.
type File struct {
	Name  string
	Decls []Decl
}

// Decl is a top-level or block-level declaration.
type Decl interface{ isDecl() }

// VarDecl declares one variable (multi-declarator declarations are split).
type VarDecl struct {
	Name string
	Type *Type
	Init Expr // nil if none; an InitList for brace initialisers
	Line int
}

// FuncDecl is a function definition or prototype (Body nil for
// prototypes).
type FuncDecl struct {
	Name   string
	Type   *Type // always TFunc
	Params []*VarDecl
	Body   *Block
	Line   int
}

// RecordDecl declares a struct or union's fields (field-insensitive
// analysis keeps only the names for node counting).
type RecordDecl struct {
	Tag    string
	Union  bool
	Fields []*VarDecl
}

// TypedefDecl records a typedef; the parser resolves later uses, so the
// analysis can ignore it.
type TypedefDecl struct {
	Name string
	Type *Type
}

// EnumDecl declares an enum; enumerators behave as integer constants.
type EnumDecl struct {
	Tag   string
	Names []string
}

func (*VarDecl) isDecl()     {}
func (*FuncDecl) isDecl()    {}
func (*RecordDecl) isDecl()  {}
func (*TypedefDecl) isDecl() {}
func (*EnumDecl) isDecl()    {}

// Stmt is a statement.
type Stmt interface{ isStmt() }

// Block is a brace-enclosed statement list.
type Block struct{ Stmts []Stmt }

// DeclStmt wraps block-level declarations.
type DeclStmt struct{ Decls []Decl }

// ExprStmt evaluates an expression for effect.
type ExprStmt struct{ X Expr }

// If is an if/else statement.
type If struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// While is a while loop.
type While struct {
	Cond Expr
	Body Stmt
}

// DoWhile is a do ... while loop.
type DoWhile struct {
	Body Stmt
	Cond Expr
}

// For is a for loop; any of Init/Cond/Post may be nil. Init may be a
// DeclStmt (C99 style).
type For struct {
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// Return returns from a function; X may be nil.
type Return struct{ X Expr }

// Switch is a switch statement; the body is parsed as an ordinary block
// whose statements may be Case-labelled.
type Switch struct {
	Tag  Expr
	Body *Block
}

// Case labels a statement inside a switch (nil X for default).
type Case struct {
	X    Expr
	Body Stmt
}

// Label is a goto label.
type Label struct {
	Name string
	Body Stmt
}

// Goto jumps to a label (ignored by the flow-insensitive analysis).
type Goto struct{ Name string }

// Break and Continue are loop controls.
type Break struct{}

// Continue continues the innermost loop.
type Continue struct{}

// Empty is the lone-semicolon statement.
type Empty struct{}

func (*Block) isStmt()    {}
func (*DeclStmt) isStmt() {}
func (*ExprStmt) isStmt() {}
func (*If) isStmt()       {}
func (*While) isStmt()    {}
func (*DoWhile) isStmt()  {}
func (*For) isStmt()      {}
func (*Return) isStmt()   {}
func (*Switch) isStmt()   {}
func (*Case) isStmt()     {}
func (*Label) isStmt()    {}
func (*Goto) isStmt()     {}
func (*Break) isStmt()    {}
func (*Continue) isStmt() {}
func (*Empty) isStmt()    {}

// Expr is an expression.
type Expr interface{ isExpr() }

// IdentExpr names a variable, function or enumerator.
type IdentExpr struct {
	Name string
	Line int
}

// IntExpr is an integer (or char) constant.
type IntExpr struct{ Text string }

// FloatExpr is a floating constant.
type FloatExpr struct{ Text string }

// StrExpr is a string literal; each literal is an abstract location.
type StrExpr struct {
	Text string
	Line int
	Col  int
}

// UnaryExpr covers & * + - ! ~ and prefix ++/--.
type UnaryExpr struct {
	Op Kind // Amp, Star, Plus, Minus, Not, Tilde, Inc, Dec
	X  Expr
}

// PostfixExpr covers postfix ++/--.
type PostfixExpr struct {
	Op Kind // Inc or Dec
	X  Expr
}

// BinaryExpr covers the arithmetic, relational and logical binaries.
type BinaryExpr struct {
	Op   Kind
	L, R Expr
}

// AssignExpr covers = and the compound assignments.
type AssignExpr struct {
	Op   Kind // Assign, AddAssign, ...
	L, R Expr
}

// CondExpr is the ternary conditional.
type CondExpr struct {
	Cond, Then, Else Expr
}

// CommaExpr is the comma operator.
type CommaExpr struct{ L, R Expr }

// CallExpr is a function call, direct or through a pointer.
type CallExpr struct {
	Fun  Expr
	Args []Expr
	Line int
	Col  int
}

// IndexExpr is array subscripting.
type IndexExpr struct{ X, Idx Expr }

// MemberExpr is field selection; Arrow distinguishes -> from '.'.
type MemberExpr struct {
	X     Expr
	Name  string
	Arrow bool
}

// CastExpr is a C cast; Andersen passes values through casts untouched.
type CastExpr struct {
	Type *Type
	X    Expr
}

// SizeofExpr is sizeof(expr) or sizeof(type); X nil for the type form.
type SizeofExpr struct {
	X    Expr
	Type *Type
}

// InitList is a brace initialiser { e1, e2, ... }.
type InitList struct{ Elems []Expr }

func (*IdentExpr) isExpr()   {}
func (*IntExpr) isExpr()     {}
func (*FloatExpr) isExpr()   {}
func (*StrExpr) isExpr()     {}
func (*UnaryExpr) isExpr()   {}
func (*PostfixExpr) isExpr() {}
func (*BinaryExpr) isExpr()  {}
func (*AssignExpr) isExpr()  {}
func (*CondExpr) isExpr()    {}
func (*CommaExpr) isExpr()   {}
func (*CallExpr) isExpr()    {}
func (*IndexExpr) isExpr()   {}
func (*MemberExpr) isExpr()  {}
func (*CastExpr) isExpr()    {}
func (*SizeofExpr) isExpr()  {}
func (*InitList) isExpr()    {}
