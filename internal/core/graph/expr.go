package graph

import "strings"

// Variance describes how a constructor argument position behaves under
// inclusion: a covariant position grows the constructed set as the argument
// grows, a contravariant position shrinks it.
type Variance int8

const (
	// Covariant argument positions decompose c(a) ⊆ c(b) into a ⊆ b.
	Covariant Variance = iota
	// Contravariant argument positions decompose c(a) ⊆ c(b) into b ⊆ a.
	Contravariant
)

// String returns "+" for covariant and "-" for contravariant positions.
func (v Variance) String() string {
	if v == Covariant {
		return "+"
	}
	return "-"
}

// A Constructor is an n-ary set constructor with a fixed signature. Two
// constructed terms are comparable only if they share the same
// *Constructor; constraints between terms of distinct constructors are
// inconsistent.
type Constructor struct {
	name string
	sig  []Variance
}

// NewConstructor returns a fresh constructor with the given name and
// per-argument variance signature. Constructors are compared by identity,
// so two calls with the same name yield incompatible constructors.
func NewConstructor(name string, sig ...Variance) *Constructor {
	return &Constructor{name: name, sig: sig}
}

// Name returns the constructor's display name.
func (c *Constructor) Name() string { return c.name }

// Arity returns the number of arguments the constructor takes.
func (c *Constructor) Arity() int { return len(c.sig) }

// Variance returns the variance of argument position i.
func (c *Constructor) Variance(i int) Variance { return c.sig[i] }

// Expr is a set expression: a variable, a constructed term, or one of the
// special sets Zero (the empty set) and One (the universal set).
type Expr interface {
	// String renders the expression in the paper's surface syntax.
	String() string
	isExpr()
}

// Term is a constructed set expression c(se1, ..., sen). Terms are compared
// by identity: reusing one *Term for repeated occurrences of the same
// abstract object (as the points-to analysis does for each location's ref
// term) is what makes redundant-edge detection meaningful.
type Term struct {
	con  *Constructor
	args []Expr
}

// NewTerm builds a constructed term. It panics if the number of arguments
// does not match the constructor's arity, since that is always a client
// bug.
func NewTerm(c *Constructor, args ...Expr) *Term {
	if len(args) != c.Arity() {
		panic("core: term arity mismatch for constructor " + c.name)
	}
	return &Term{con: c, args: args}
}

// Con returns the term's constructor.
func (t *Term) Con() *Constructor { return t.con }

// Arg returns the i-th argument expression.
func (t *Term) Arg(i int) Expr { return t.args[i] }

// String renders the term as c(arg1,...,argn).
func (t *Term) String() string {
	if len(t.args) == 0 {
		return t.con.name
	}
	var b strings.Builder
	b.WriteString(t.con.name)
	b.WriteByte('(')
	for i, a := range t.args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.String())
	}
	b.WriteByte(')')
	return b.String()
}

func (t *Term) isExpr() {}

// Union is a set union usable on the left-hand side of a constraint:
// (L₁ ∪ L₂) ⊆ R decomposes into L₁ ⊆ R and L₂ ⊆ R. (On a right-hand side
// a union would require disjunctive reasoning, which inclusion constraint
// resolution does not support; the resolution engine rejects it.)
type Union struct {
	exprs []Expr
}

// NewUnion builds the union of the given expressions.
func NewUnion(exprs ...Expr) *Union { return &Union{exprs: exprs} }

// Exprs returns the union's members.
func (u *Union) Exprs() []Expr { return u.exprs }

// String renders (e1 ∪ e2 ∪ ...).
func (u *Union) String() string { return joinExprs(u.exprs, " ∪ ") }

func (u *Union) isExpr() {}

// Intersection is a set intersection usable on the right-hand side of a
// constraint: L ⊆ (R₁ ∩ R₂) decomposes into L ⊆ R₁ and L ⊆ R₂. (On a
// left-hand side an intersection is not expressible in this fragment; the
// resolution engine rejects it.)
type Intersection struct {
	exprs []Expr
}

// NewIntersection builds the intersection of the given expressions.
func NewIntersection(exprs ...Expr) *Intersection {
	return &Intersection{exprs: exprs}
}

// Exprs returns the intersection's members.
func (i *Intersection) Exprs() []Expr { return i.exprs }

// String renders (e1 ∩ e2 ∩ ...).
func (i *Intersection) String() string { return joinExprs(i.exprs, " ∩ ") }

func (i *Intersection) isExpr() {}

func joinExprs(exprs []Expr, sep string) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, e := range exprs {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(e.String())
	}
	b.WriteByte(')')
	return b.String()
}

var (
	zeroCon = NewConstructor("0")
	oneCon  = NewConstructor("1")

	// Zero is the empty set. 0 ⊆ R holds trivially for every R, and a
	// constraint c(...) ⊆ 0 is inconsistent.
	Zero Expr = NewTerm(zeroCon)
	// One is the universal set. L ⊆ 1 holds trivially for every L, and a
	// constraint 1 ⊆ c(...) is inconsistent.
	One Expr = NewTerm(oneCon)
)

// IsZero reports whether e is the Zero singleton.
func IsZero(e Expr) bool { return e == Zero }

// IsOne reports whether e is the One singleton.
func IsOne(e Expr) bool { return e == One }
