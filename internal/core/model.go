// Package core implements the inclusion (set) constraint solver of
// Fähndrich, Foster, Su and Aiken, "Partial Online Cycle Elimination in
// Inclusion Constraint Graphs" (PLDI 1998).
//
// The constraint language is
//
//	L, R ::= X | c(se1, ..., sen) | 0 | 1
//
// where X ranges over set variables and each constructor c carries a
// signature giving the variance (covariant or contravariant) of each
// argument. Constraints L ⊆ R are resolved online to atomic form — the
// three shapes X ⊆ Y, c(...) ⊆ X and X ⊆ c(...) — and the atomic
// constraints are kept closed under the transitive closure rule as edges of
// a constraint graph.
//
// Two graph representations are provided: standard form (SF), in which
// every variable-variable edge is a successor edge, and inductive form
// (IF), in which a variable-variable edge is stored on the endpoint with
// the larger index in a fixed random total order o(·). On top of either
// representation the solver can run the paper's partial online cycle
// elimination: at each variable-variable edge insertion a bounded search
// along order-decreasing chains looks for a closing path, and any cycle
// found is collapsed onto a witness variable.
//
// The package is the middle of a three-layer stack. The storage layer,
// internal/core/graph, owns the object model, the variable store, the
// union-find forwarding structure and the adjacency sets; core owns the
// resolution engine (System), with the representation and cycle policy
// selected by Options; the public façade, the root polce package, adds
// locking, batching and snapshot-isolated concurrent queries on top.
// Clients should normally use the façade.
package core

import "polce/internal/core/graph"

// The object model lives in the storage layer; core aliases it so the
// resolution engine and every existing client share one vocabulary. The
// aliases are re-exported again by the polce façade.
type (
	// Variance describes how a constructor argument position behaves
	// under inclusion.
	Variance = graph.Variance
	// Constructor is an n-ary set constructor with a fixed signature.
	Constructor = graph.Constructor
	// Expr is a set expression: a variable, a constructed term, or one of
	// the special sets Zero and One.
	Expr = graph.Expr
	// Var is a set variable, created with System.Fresh.
	Var = graph.Var
	// Term is a constructed set expression c(se1, ..., sen).
	Term = graph.Term
	// Union is a set union usable on the left-hand side of a constraint.
	Union = graph.Union
	// Intersection is a set intersection usable on the right-hand side of
	// a constraint.
	Intersection = graph.Intersection
)

const (
	// Covariant argument positions decompose c(a) ⊆ c(b) into a ⊆ b.
	Covariant = graph.Covariant
	// Contravariant argument positions decompose c(a) ⊆ c(b) into b ⊆ a.
	Contravariant = graph.Contravariant
)

var (
	// Zero is the empty set. 0 ⊆ R holds trivially for every R, and a
	// constraint c(...) ⊆ 0 is inconsistent.
	Zero = graph.Zero
	// One is the universal set. L ⊆ 1 holds trivially for every L, and a
	// constraint 1 ⊆ c(...) is inconsistent.
	One = graph.One
)

// NewConstructor returns a fresh constructor with the given name and
// per-argument variance signature. Constructors are compared by identity,
// so two calls with the same name yield incompatible constructors.
func NewConstructor(name string, sig ...Variance) *Constructor {
	return graph.NewConstructor(name, sig...)
}

// NewTerm builds a constructed term. It panics if the number of arguments
// does not match the constructor's arity, since that is always a client
// bug.
func NewTerm(c *Constructor, args ...Expr) *Term {
	return graph.NewTerm(c, args...)
}

// NewUnion builds the union of the given expressions.
func NewUnion(exprs ...Expr) *Union { return graph.NewUnion(exprs...) }

// NewIntersection builds the intersection of the given expressions.
func NewIntersection(exprs ...Expr) *Intersection {
	return graph.NewIntersection(exprs...)
}

// find follows forwarding parents to v's representative, compressing the
// path as it goes.
func find(v *Var) *Var { return graph.Find(v) }

// isZero reports whether e is the Zero singleton.
func isZero(e Expr) bool { return graph.IsZero(e) }

// isOne reports whether e is the One singleton.
func isOne(e Expr) bool { return graph.IsOne(e) }
