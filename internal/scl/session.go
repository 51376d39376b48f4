package scl

// Incremental parsing and lowering, for long-lived sessions (the HTTP
// constraint service foremost) that grow one constraint program across
// many requests instead of parsing a file once: ParseAppend extends a File
// atomically, and a Binder lowers surface constraints into a live solver
// while interning variables by name and terms structurally across calls.

import (
	"fmt"

	"polce"
)

// ParseAppend parses additional statements into f and returns the
// constraints they add, in order. Declarations, variable first-uses and
// queries are recorded in f; the constraints are not — f.Constraints keeps
// only what Parse read — so a long-lived session holds its vocabulary, not
// every request's syntax tree. The append is atomic: on a parse error,
// every declaration, variable first-use and query introduced by src is
// rolled back and f is exactly as before the call.
func (f *File) ParseAppend(src string) ([]Constraint, error) {
	nCons := len(f.consNames)
	nVars := len(f.varNames)
	nQueries := len(f.Queries)
	kept := f.Constraints
	f.Constraints = nil
	err := f.parseAll(src)
	cs := f.Constraints
	f.Constraints = kept
	if err != nil {
		for _, name := range f.consNames[nCons:] {
			delete(f.Cons, name)
		}
		f.consNames = f.consNames[:nCons]
		for _, name := range f.varNames[nVars:] {
			delete(f.varSet, name)
		}
		f.varNames = f.varNames[:nVars]
		f.Queries = f.Queries[:nQueries]
		return nil, err
	}
	return cs, nil
}

// A Binder lowers surface expressions into solver expressions against one
// live solver. Variables are interned by name — the first occurrence calls
// Fresh, later ones reuse the handle — and terms structurally, so every
// occurrence of the same written term denotes the same *polce.Term across
// the binder's whole lifetime. A Binder is not safe for concurrent use;
// callers serialise (the service holds its session lock).
type Binder struct {
	Sys  *polce.Solver
	Vars map[string]*polce.Var

	file  *File
	terms map[string]*polce.Term
}

// NewBinder returns a binder lowering f's vocabulary into sys. No
// variables are created yet; they appear on first use (or via EnsureVars).
func NewBinder(f *File, sys *polce.Solver) *Binder {
	return &Binder{
		Sys:   sys,
		Vars:  map[string]*polce.Var{},
		file:  f,
		terms: map[string]*polce.Term{},
	}
}

// EnsureVars creates, in order, any of the named variables the binder has
// not seen yet. Callers that need a deterministic creation order (seeded
// variable orders, golden outputs) pass File.VarNames before lowering.
func (b *Binder) EnsureVars(names []string) {
	for _, name := range names {
		b.Var(name)
	}
}

// Var returns the solver variable interned under name, creating it on
// first use.
func (b *Binder) Var(name string) *polce.Var {
	if v, ok := b.Vars[name]; ok {
		return v
	}
	v := b.Sys.Fresh(name)
	b.Vars[name] = v
	return v
}

// Bind lowers one surface expression.
func (b *Binder) Bind(e Expr) polce.Expr {
	switch x := e.(type) {
	case *VarExpr:
		return b.Var(x.Name)
	case *ZeroExpr:
		return polce.Zero
	case *OneExpr:
		return polce.One
	case *TermExpr:
		// Terms are interned structurally: since variables are interned by
		// name and sub-terms recursively, identity of the built argument
		// expressions is a sound structural key.
		args := make([]polce.Expr, len(x.Args))
		key := x.Con
		for i, a := range x.Args {
			args[i] = b.Bind(a)
			key += fmt.Sprintf("|%p", args[i])
		}
		if t, ok := b.terms[key]; ok {
			return t
		}
		t := polce.NewTerm(b.file.Cons[x.Con], args...)
		b.terms[key] = t
		return t
	case *OpExpr:
		if x.Op == '|' {
			return polce.NewUnion(b.Bind(x.L), b.Bind(x.R))
		}
		return polce.NewIntersection(b.Bind(x.L), b.Bind(x.R))
	}
	panic(fmt.Sprintf("scl: unknown expression %T", e))
}

// Lower lowers a batch of surface constraints into solver constraints,
// ready for Solver.AddBatch.
func (b *Binder) Lower(cs []Constraint) []polce.Constraint {
	out := make([]polce.Constraint, len(cs))
	for i, c := range cs {
		out[i] = polce.Constraint{L: b.Bind(c.L), R: b.Bind(c.R)}
	}
	return out
}
