package scl

import (
	"strings"
	"testing"

	"polce"
)

// TestParseAppendGrowsOneProgram checks that a file parsed in increments,
// each increment lowered through one Binder, solves identically to the
// same program parsed at once, with constructor and variable identities
// shared across increments — and that the increments' constraints are
// returned, not recorded in the file.
func TestParseAppendGrowsOneProgram(t *testing.T) {
	whole := MustParse("cons a; cons c(+)\na <= X; X <= Y\nc(Y) <= Z; query Z")

	inc := MustParse("cons a; cons c(+)")
	cs1, err := inc.ParseAppend("a <= X; X <= Y")
	if err != nil || len(cs1) != 2 {
		t.Fatalf("ParseAppend 1 = %v, %v", cs1, err)
	}
	cs2, err := inc.ParseAppend("c(Y) <= Z; query Z")
	if err != nil || len(cs2) != 1 {
		t.Fatalf("ParseAppend 2 = %v, %v", cs2, err)
	}
	if len(inc.Constraints) != 0 {
		t.Fatalf("ParseAppend recorded %d constraints in File.Constraints", len(inc.Constraints))
	}

	opt := polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 3}
	a := whole.Solve(opt).QueryResults()
	b := NewBinder(inc, polce.New(opt))
	b.EnsureVars(inc.VarNames())
	for _, c := range b.Lower(append(cs1, cs2...)) {
		b.Sys.AddConstraint(c.L, c.R)
	}
	got := (&Solved{Sys: b.Sys, Vars: b.Vars, file: inc}).QueryResults()
	if strings.Join(a, "\n") != strings.Join(got, "\n") {
		t.Fatalf("incremental parse diverges:\n%v\n%v", a, got)
	}
}

// TestParseAppendRollsBackOnError pins atomicity: a failing append leaves
// no trace — its declarations, variables and constraints all unwind, and
// the same statements can be re-submitted after fixing the error.
func TestParseAppendRollsBackOnError(t *testing.T) {
	f := MustParse("cons a\na <= X")
	if _, err := f.ParseAppend("cons d(+); d(Y) <= Z; query Q; what is this"); err == nil {
		t.Fatal("malformed append did not error")
	}
	if _, ok := f.Cons["d"]; ok {
		t.Fatal("rolled-back constructor survived")
	}
	if len(f.Constraints) != 1 || len(f.Queries) != 0 {
		t.Fatalf("rolled-back statements survived: %d constraints, %d queries", len(f.Constraints), len(f.Queries))
	}
	if got := f.VarNames(); len(got) != 1 || got[0] != "X" {
		t.Fatalf("rolled-back variables survived: %v", got)
	}
	// Re-declaring d after the rollback works (no phantom duplicate).
	if _, err := f.ParseAppend("cons d(+); d(X) <= Z"); err != nil {
		t.Fatalf("re-append after rollback: %v", err)
	}
}

// TestBinderIncrementalLowering drives a Binder the way the serve session
// does: lower each appended batch into a live solver, with vars created on
// first use and term identity preserved across batches.
func TestBinderIncrementalLowering(t *testing.T) {
	f := MustParse("cons a; cons c(+)")
	sys := polce.New(polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 7})
	b := NewBinder(f, sys)

	cs, err := f.ParseAppend("a <= X; c(X) <= Y")
	if err != nil {
		t.Fatal(err)
	}
	sys.AddBatch(b.Lower(cs))
	cs, err = f.ParseAppend("Y <= Z; c(X) <= W")
	if err != nil {
		t.Fatal(err)
	}
	lowered := b.Lower(cs)
	sys.AddBatch(lowered)

	// The c(X) in batch 2 must be the same *Term as in batch 1.
	zLS := sys.LeastSolution(b.Var("Z"))
	wLS := sys.LeastSolution(b.Var("W"))
	if len(zLS) != 1 || len(wLS) != 1 || zLS[0] != wLS[0] {
		t.Fatalf("term identity broke across batches: LS(Z)=%v LS(W)=%v", zLS, wLS)
	}
	if got := sys.LeastSolution(b.Var("X")); len(got) != 1 || got[0].String() != "a" {
		t.Fatalf("LS(X) = %v", got)
	}
}
