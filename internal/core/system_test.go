package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// atoms returns n nullary constructor terms named a0..a(n-1). Nullary terms
// are the "sources" whose propagation the least solution reports.
func atoms(n int) []*Term {
	out := make([]*Term, n)
	for i := range out {
		out[i] = NewTerm(NewConstructor(fmt.Sprintf("a%d", i)))
	}
	return out
}

func lsNames(s *System, v *Var) []string {
	ts := s.LeastSolution(v)
	names := make([]string, 0, len(ts))
	for _, t := range ts {
		names = append(names, t.String())
	}
	sort.Strings(names)
	return names
}

// lsAtoms returns only the nullary terms of LS(v), deduplicated. Nullary
// terms are stable identities across runs even when the oracle aliases
// variables at creation time (which renames variable arguments inside
// constructed terms).
func lsAtoms(s *System, v *Var) []string {
	seen := map[string]bool{}
	var names []string
	for _, t := range s.LeastSolution(v) {
		if t.Con().Arity() == 0 && !seen[t.String()] {
			seen[t.String()] = true
			names = append(names, t.String())
		}
	}
	sort.Strings(names)
	return names
}

func TestBasicPropagation(t *testing.T) {
	for _, form := range []Form{SF, IF} {
		for _, pol := range []CyclePolicy{CycleNone, CycleOnline} {
			t.Run(fmt.Sprintf("%v-%v", form, pol), func(t *testing.T) {
				s := NewSystem(Options{Form: form, Cycles: pol, Seed: 1})
				a := atoms(2)
				x := s.Fresh("X")
				y := s.Fresh("Y")
				z := s.Fresh("Z")
				s.AddConstraint(a[0], x) // a0 ⊆ X
				s.AddConstraint(x, y)    // X ⊆ Y
				s.AddConstraint(y, z)    // Y ⊆ Z
				s.AddConstraint(a[1], y) // a1 ⊆ Y

				if got := lsNames(s, x); len(got) != 1 || got[0] != "a0" {
					t.Errorf("LS(X) = %v, want [a0]", got)
				}
				if got := lsNames(s, y); len(got) != 2 {
					t.Errorf("LS(Y) = %v, want [a0 a1]", got)
				}
				if got := lsNames(s, z); len(got) != 2 {
					t.Errorf("LS(Z) = %v, want [a0 a1]", got)
				}
				if s.ErrorCount() != 0 {
					t.Errorf("unexpected errors: %v", s.Errors())
				}
			})
		}
	}
}

func TestCovariantDecomposition(t *testing.T) {
	box := NewConstructor("box", Covariant)
	for _, form := range []Form{SF, IF} {
		s := NewSystem(Options{Form: form, Seed: 7})
		a := atoms(1)
		x := s.Fresh("X")
		y := s.Fresh("Y")
		s.AddConstraint(a[0], x)
		// box(X) ⊆ box(Y) should yield X ⊆ Y.
		s.AddConstraint(NewTerm(box, x), NewTerm(box, y))
		if got := lsNames(s, y); len(got) != 1 || got[0] != "a0" {
			t.Errorf("%v: LS(Y) = %v, want [a0]", form, got)
		}
	}
}

func TestContravariantDecomposition(t *testing.T) {
	sink := NewConstructor("sink", Contravariant)
	for _, form := range []Form{SF, IF} {
		s := NewSystem(Options{Form: form, Seed: 7})
		a := atoms(1)
		x := s.Fresh("X")
		y := s.Fresh("Y")
		s.AddConstraint(a[0], y)
		// sink(X̄) ⊆ sink(Ȳ) should yield Y ⊆ X.
		s.AddConstraint(NewTerm(sink, x), NewTerm(sink, y))
		if got := lsNames(s, x); len(got) != 1 || got[0] != "a0" {
			t.Errorf("%v: LS(X) = %v, want [a0]", form, got)
		}
	}
}

func TestProjectionThroughSink(t *testing.T) {
	// ref(get, s̄et) mimics the points-to encoding: reading through a sink
	// ref(T, 0) and writing through a sink ref(1, V̄).
	ref := NewConstructor("ref", Covariant, Contravariant)
	for _, form := range []Form{SF, IF} {
		for _, pol := range []CyclePolicy{CycleNone, CycleOnline} {
			s := NewSystem(Options{Form: form, Cycles: pol, Seed: 3})
			a := atoms(1)
			content := s.Fresh("Xl")
			p := s.Fresh("P")
			loc := NewTerm(ref, content, content)
			s.AddConstraint(loc, p) // p points to loc

			// Write: p ⊆ ref(1, V̄) with a0 ⊆ V forces a0 into content.
			v := s.Fresh("V")
			s.AddConstraint(a[0], v)
			s.AddConstraint(p, NewTerm(ref, One, v))

			// Read: p ⊆ ref(T, 0) pulls content into T.
			tv := s.Fresh("T")
			s.AddConstraint(p, NewTerm(ref, tv, Zero))

			if got := lsNames(s, content); len(got) != 1 || got[0] != "a0" {
				t.Errorf("%v/%v: LS(content) = %v, want [a0]", form, pol, got)
			}
			if got := lsNames(s, tv); len(got) != 1 || got[0] != "a0" {
				t.Errorf("%v/%v: LS(T) = %v, want [a0]", form, pol, got)
			}
			if s.ErrorCount() != 0 {
				t.Errorf("%v/%v: unexpected errors %v", form, pol, s.Errors())
			}
		}
	}
}

func TestZeroOneRules(t *testing.T) {
	box := NewConstructor("box", Covariant)
	s := NewSystem(Options{Form: IF, Cycles: CycleOnline, Seed: 5})
	x := s.Fresh("X")
	s.AddConstraint(Zero, x)                  // trivial
	s.AddConstraint(x, One)                   // trivial
	s.AddConstraint(Zero, NewTerm(box, Zero)) // trivial
	if s.Stats().Work != 0 {
		t.Errorf("trivial constraints should add no edges, work=%d", s.Stats().Work)
	}
	if s.ErrorCount() != 0 {
		t.Errorf("unexpected errors: %v", s.Errors())
	}
}

func TestInconsistency(t *testing.T) {
	a := atoms(2)
	s := NewSystem(Options{Form: SF, Seed: 5})
	x := s.Fresh("X")
	s.AddConstraint(a[0], x)
	s.AddConstraint(x, a[1]) // a0 ⊆ X ⊆ a1 is inconsistent
	if s.ErrorCount() != 1 {
		t.Fatalf("want 1 inconsistency, got %d", s.ErrorCount())
	}
	// 1 ⊆ c(...) and c(...) ⊆ 0 are inconsistent too.
	s.AddConstraint(One, a[0])
	s.AddConstraint(a[0], Zero)
	if s.ErrorCount() != 3 {
		t.Fatalf("want 3 inconsistencies, got %d", s.ErrorCount())
	}
}

// TestOutOfRangeOptionsNormalised pins NewSystem's normalisation: a Form
// other than SF behaves as IF everywhere (orientation, cycle search and
// least solutions), and an unknown cycle policy as CycleNone.
func TestOutOfRangeOptionsNormalised(t *testing.T) {
	ops := genScript(4, 80, 300)
	for _, c := range []struct {
		name      string
		got, want Options
	}{
		{"Form(7)", Options{Form: Form(7), Cycles: CycleOnline, Seed: 4}, Options{Form: IF, Cycles: CycleOnline, Seed: 4}},
		{"CyclePolicy(99)", Options{Form: IF, Cycles: CyclePolicy(99), Seed: 4}, Options{Form: IF, Cycles: CycleNone, Seed: 4}},
	} {
		got, gotVars := runScript(c.got, ops)
		want, wantVars := runScript(c.want, ops)
		if got.Form() != c.want.Form || got.Policy() != c.want.Cycles {
			t.Errorf("%s: Form/Policy = %v/%v, want %v/%v", c.name, got.Form(), got.Policy(), c.want.Form, c.want.Cycles)
		}
		for i := range gotVars {
			if a, b := fmt.Sprint(lsNames(got, gotVars[i])), fmt.Sprint(lsNames(want, wantVars[i])); a != b {
				t.Fatalf("%s: LS(v%d) = %s, want %s", c.name, i, a, b)
			}
		}
		if a, b := got.Stats(), want.Stats(); a != b {
			t.Errorf("%s: Stats differ from %v/%v:\n got %+v\nwant %+v", c.name, c.want.Form, c.want.Cycles, a, b)
		}
	}
}

func TestMaxErrorsBound(t *testing.T) {
	a := atoms(2)
	s := NewSystem(Options{Form: SF, Seed: 5})
	for i := 0; i < 20; i++ {
		x := s.Fresh("X")
		s.AddConstraint(a[0], x)
		s.AddConstraint(x, a[1])
	}
	if got := len(s.Errors()); got != 16 {
		t.Errorf("retained errors = %d, want 16", got)
	}
	if s.ErrorCount() != 20 {
		t.Errorf("counted errors = %d, want 20", s.ErrorCount())
	}
}

func TestSimpleCycleCollapse(t *testing.T) {
	for _, form := range []Form{SF, IF} {
		s := NewSystem(Options{Form: form, Cycles: CycleOnline, Seed: 11})
		a := atoms(1)
		x := s.Fresh("X")
		y := s.Fresh("Y")
		s.AddConstraint(x, y)
		s.AddConstraint(y, x) // closes a 2-cycle; must always be caught
		if s.Stats().VarsEliminated != 1 {
			t.Errorf("%v: eliminated = %d, want 1", form, s.Stats().VarsEliminated)
		}
		if s.Find(x) != s.Find(y) {
			t.Errorf("%v: X and Y not merged", form)
		}
		s.AddConstraint(a[0], x)
		if got := lsNames(s, y); len(got) != 1 || got[0] != "a0" {
			t.Errorf("%v: LS(Y) = %v, want [a0]", form, got)
		}
	}
}

func TestTwoCycleAlwaysDetectedIF(t *testing.T) {
	// Under inductive form a direct 2-cycle is always detected, whatever
	// the variable order: the closing edge's chain search starts at the
	// higher-ordered endpoint and the existing edge necessarily points
	// down-order. (This is the base case of the paper's theorem that IF
	// exposes at least a 2-cycle of every non-trivial SCC; it does NOT
	// hold for SF, whose search can be blocked by the order filter.)
	for seed := int64(0); seed < 50; seed++ {
		s := NewSystem(Options{Form: IF, Cycles: CycleOnline, Seed: seed})
		x := s.Fresh("X")
		y := s.Fresh("Y")
		s.AddConstraint(x, y)
		s.AddConstraint(y, x)
		if s.Find(x) != s.Find(y) {
			t.Fatalf("IF seed %d: 2-cycle not collapsed", seed)
		}
	}
}

func TestSFMissesSomeTwoCycles(t *testing.T) {
	// The complementary fact: across many random orders, SF's
	// order-restricted successor search misses roughly half of direct
	// 2-cycles (it detects the cycle only when the closing step moves
	// down-order).
	detected := 0
	const trials = 200
	for seed := int64(0); seed < trials; seed++ {
		s := NewSystem(Options{Form: SF, Cycles: CycleOnline, Seed: seed})
		x := s.Fresh("X")
		y := s.Fresh("Y")
		s.AddConstraint(x, y)
		s.AddConstraint(y, x)
		if s.Find(x) == s.Find(y) {
			detected++
		}
	}
	if detected == 0 || detected == trials {
		t.Errorf("SF detected %d/%d 2-cycles; expected a strict subset", detected, trials)
	}
	if detected < trials/4 || detected > 3*trials/4 {
		t.Errorf("SF detected %d/%d 2-cycles; expected about half", detected, trials)
	}
}

func TestWitnessIsMinOrder(t *testing.T) {
	s := NewSystem(Options{Form: IF, Cycles: CycleOnline, Seed: 13})
	vars := make([]*Var, 5)
	for i := range vars {
		vars[i] = s.Fresh(fmt.Sprintf("v%d", i))
	}
	for i := 0; i < len(vars); i++ {
		s.AddConstraint(vars[i], vars[(i+1)%len(vars)])
	}
	min := vars[0]
	for _, v := range vars[1:] {
		if before(v, min) {
			min = v
		}
	}
	// All variables the solver merged must forward to a witness that is
	// minimal among the variables of its class.
	for _, v := range vars {
		w := s.Find(v)
		if w != v && !before(w, v) {
			t.Errorf("witness %s does not precede %s", w, v)
		}
	}
	_ = min
}

// TestInductiveInvariant checks that after an IF run with collapses, every
// canonical variable-variable edge still points from lower to higher order:
// predecessors of y precede y, successors of x precede x.
func TestInductiveInvariant(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s := randomSystem(t, IF, CycleOnline, seed, 200, 600)
		for _, y := range s.CanonicalVars() {
			s.store.Clean(y)
			for _, p := range y.PredV.List() {
				p = find(p)
				if !before(p, y) {
					t.Fatalf("seed %d: pred edge violates order: o(%s) !< o(%s)", seed, p, y)
				}
			}
			for _, w := range y.SuccV.List() {
				w = find(w)
				if !before(w, y) {
					t.Fatalf("seed %d: succ edge violates order: o(%s) !< o(%s)", seed, w, y)
				}
			}
		}
	}
}

// TestSFNoVarPreds checks the SF representation invariant: predecessor
// lists only ever contain sources.
func TestSFNoVarPreds(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, pol := range []CyclePolicy{CycleNone, CycleOnline} {
			s := randomSystem(t, SF, pol, seed, 200, 600)
			for _, v := range s.CanonicalVars() {
				if v.PredV.Size() != 0 {
					t.Fatalf("seed %d: SF variable %s has variable predecessors", seed, v)
				}
			}
		}
	}
}

// --- random constraint-system scripts -----------------------------------

// scriptOp is one step of a reproducible constraint-generation script, so
// the same abstract system can be replayed against different solver
// configurations.
type scriptOp struct {
	fresh bool
	l, r  exprSpec
}

type exprSpec struct {
	kind int // 0 var, 1 atom, 2 box(var), 3 wsink(var), 4 pair(var,var), 5 zero, 6 one
	a, b int
}

var (
	testAtoms = atoms(6)
	testBox   = NewConstructor("box", Covariant)
	testWSink = NewConstructor("wsink", Contravariant)
	testPair  = NewConstructor("pair", Covariant, Contravariant)
)

func (e exprSpec) build(vars []*Var) Expr {
	switch e.kind {
	case 0:
		return vars[e.a%len(vars)]
	case 1:
		return testAtoms[e.a%len(testAtoms)]
	case 2:
		return NewTerm(testBox, vars[e.a%len(vars)])
	case 3:
		return NewTerm(testWSink, vars[e.a%len(vars)])
	case 4:
		return NewTerm(testPair, vars[e.a%len(vars)], vars[e.b%len(vars)])
	case 5:
		return Zero
	default:
		return One
	}
}

// genScript produces a random script with roughly nv variables and nc
// constraints, biased toward variable-variable constraints so cycles form.
func genScript(seed int64, nv, nc int) []scriptOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []scriptOp
	for i := 0; i < nv; i++ {
		ops = append(ops, scriptOp{fresh: true})
	}
	for i := 0; i < nc; i++ {
		var op scriptOp
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // var ⊆ var
			op.l = exprSpec{kind: 0, a: rng.Intn(nv)}
			op.r = exprSpec{kind: 0, a: rng.Intn(nv)}
		case 5: // atom ⊆ var
			op.l = exprSpec{kind: 1, a: rng.Intn(6)}
			op.r = exprSpec{kind: 0, a: rng.Intn(nv)}
		case 6: // box(var) ⊆ var
			op.l = exprSpec{kind: 2, a: rng.Intn(nv)}
			op.r = exprSpec{kind: 0, a: rng.Intn(nv)}
		case 7: // var ⊆ box(var) — projection
			op.l = exprSpec{kind: 0, a: rng.Intn(nv)}
			op.r = exprSpec{kind: 2, a: rng.Intn(nv)}
		case 8: // pair(var, var̄) source and sink
			op.l = exprSpec{kind: 4, a: rng.Intn(nv), b: rng.Intn(nv)}
			op.r = exprSpec{kind: 0, a: rng.Intn(nv)}
		default: // var ⊆ pair(var, var̄)
			op.l = exprSpec{kind: 0, a: rng.Intn(nv)}
			op.r = exprSpec{kind: 4, a: rng.Intn(nv), b: rng.Intn(nv)}
		}
		ops = append(ops, op)
	}
	return ops
}

// runScript replays a script against a fresh system with the given
// configuration. The order seed is fixed so that IF's variable order — and
// hence its work counters — are reproducible; correctness must hold for
// any order, which the seed loop in callers exercises.
func runScript(opt Options, ops []scriptOp) (*System, []*Var) {
	s := NewSystem(opt)
	var vars []*Var
	for _, op := range ops {
		if op.fresh {
			vars = append(vars, s.Fresh(fmt.Sprintf("v%d", len(vars))))
			continue
		}
		s.AddConstraint(op.l.build(vars), op.r.build(vars))
	}
	return s, vars
}

func randomSystem(t *testing.T, form Form, pol CyclePolicy, seed int64, nv, nc int) *System {
	t.Helper()
	s, _ := runScript(Options{Form: form, Cycles: pol, Seed: seed}, genScript(seed, nv, nc))
	return s
}

// TestAllConfigurationsAgree is the central correctness property: every
// representation × policy combination computes the same least solution for
// every variable of the same constraint system.
func TestAllConfigurationsAgree(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		ops := genScript(seed, 60, 200)
		ref, refVars := runScript(Options{Form: SF, Cycles: CycleNone, Seed: seed}, ops)

		configs := []Options{
			{Form: IF, Cycles: CycleNone, Seed: seed},
			{Form: SF, Cycles: CycleOnline, Seed: seed},
			{Form: IF, Cycles: CycleOnline, Seed: seed},
			{Form: SF, Cycles: CycleOnlineIncreasing, Seed: seed},
			{Form: IF, Cycles: CycleOnline, Seed: seed + 1000}, // different order
			{Form: SF, Cycles: CycleOnline, Seed: seed + 1000},
		}
		for _, cfg := range configs {
			s, vars := runScript(cfg, ops)
			for i, v := range vars {
				want := lsNames(ref, refVars[i])
				got := lsNames(s, v)
				if len(want) != len(got) {
					t.Fatalf("seed %d %v/%v var v%d: LS mismatch\n got %v\nwant %v",
						seed, cfg.Form, cfg.Cycles, i, got, want)
				}
				for j := range want {
					if want[j] != got[j] {
						t.Fatalf("seed %d %v/%v var v%d: LS mismatch\n got %v\nwant %v",
							seed, cfg.Form, cfg.Cycles, i, got, want)
					}
				}
			}
		}
	}
}

// TestOracleAgreesAndIsAcyclic builds an oracle from an online run and
// checks that (a) the oracle run computes the same least solutions and (b)
// its canonical constraint graph is acyclic — the paper's perfect
// elimination.
func TestOracleAgreesAndIsAcyclic(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		ops := genScript(seed, 60, 200)
		pass1, vars1 := runScript(Options{Form: IF, Cycles: CycleOnline, Seed: seed}, ops)
		oracle := BuildOracle(pass1)

		for _, form := range []Form{SF, IF} {
			s, vars := runScript(Options{Form: form, Cycles: CycleOracle, Seed: seed, Oracle: oracle}, ops)
			for i, v := range vars {
				// Compare the nullary-term content: oracle aliasing renames
				// variable arguments inside constructed terms, but the
				// propagated atoms must be identical.
				want := lsAtoms(pass1, vars1[i])
				got := lsAtoms(s, v)
				if fmt.Sprint(want) != fmt.Sprint(got) {
					t.Fatalf("seed %d oracle/%v var v%d: LS mismatch\n got %v\nwant %v", seed, form, i, got, want)
				}
			}
			canon := s.CanonicalVars()
			comp, _, index := sccStrong(s, canon)
			sizes := make(map[int]int)
			for _, v := range canon {
				sizes[comp[index[v]]]++
			}
			for c, sz := range sizes {
				if sz >= 2 {
					t.Fatalf("seed %d oracle/%v: non-trivial SCC %d of size %d survived", seed, form, c, sz)
				}
			}
		}
	}
}

// TestOracleEliminatesEverything: with a perfect oracle no online run can
// eliminate more; the oracle must pre-merge exactly the cyclic classes.
func TestOracleEliminatesEverything(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		ops := genScript(seed, 60, 200)
		pass1, _ := runScript(Options{Form: IF, Cycles: CycleOnline, Seed: seed}, ops)
		inCycles, _ := pass1.CycleClassStats()
		oracle := BuildOracle(pass1)

		s, _ := runScript(Options{Form: IF, Cycles: CycleOracle, Seed: seed, Oracle: oracle}, ops)
		st := s.Stats()
		// Every variable in a cyclic class except its witness is
		// pre-merged: eliminated = inCycles - #classes. Online elimination
		// during the oracle run must find nothing.
		if st.CyclesFound != 0 {
			t.Fatalf("seed %d: oracle run still found %d cycles", seed, st.CyclesFound)
		}
		if inCycles > 0 && st.VarsEliminated == 0 {
			t.Fatalf("seed %d: oracle eliminated nothing though %d vars are cyclic", seed, inCycles)
		}
	}
}

// TestCycleClassStatsConsistency: the cyclic-equivalence statistics must
// agree across representations and policies, since they are a property of
// the constraint system, not of the implementation.
func TestCycleClassStatsConsistency(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		ops := genScript(seed, 50, 160)
		var got [][2]int
		for _, cfg := range []Options{
			{Form: SF, Cycles: CycleNone, Seed: seed},
			{Form: IF, Cycles: CycleNone, Seed: seed},
			{Form: SF, Cycles: CycleOnline, Seed: seed},
			{Form: IF, Cycles: CycleOnline, Seed: seed},
		} {
			s, _ := runScript(cfg, ops)
			in, max := s.CycleClassStats()
			got = append(got, [2]int{in, max})
		}
		for i := 1; i < len(got); i++ {
			if got[i] != got[0] {
				t.Fatalf("seed %d: cycle class stats differ across configs: %v", seed, got)
			}
		}
	}
}

// TestOnlineEliminationHelps: on cyclic workloads online elimination should
// do no more work than plain resolution (the entire point of the paper).
func TestOnlineEliminationHelps(t *testing.T) {
	ops := genScript(42, 300, 1500)
	plain, _ := runScript(Options{Form: IF, Cycles: CycleNone, Seed: 42}, ops)
	online, _ := runScript(Options{Form: IF, Cycles: CycleOnline, Seed: 42}, ops)
	if online.Stats().Work > plain.Stats().Work {
		t.Errorf("online work %d exceeds plain work %d", online.Stats().Work, plain.Stats().Work)
	}
	if online.Stats().VarsEliminated == 0 {
		t.Errorf("online run eliminated no variables on a cyclic workload")
	}
}

func TestEdgeCountsAndRedundant(t *testing.T) {
	s := NewSystem(Options{Form: SF, Seed: 1})
	a := atoms(1)
	x := s.Fresh("X")
	y := s.Fresh("Y")
	s.AddConstraint(x, y)
	s.AddConstraint(x, y) // redundant
	s.AddConstraint(a[0], x)
	vv, src, snk := s.EdgeCounts()
	if vv != 1 || src != 2 || snk != 0 {
		t.Errorf("EdgeCounts = (%d,%d,%d), want (1,2,0)", vv, src, snk)
	}
	if s.Stats().Redundant == 0 {
		t.Errorf("redundant addition not counted")
	}
	if s.TotalEdges() != 3 {
		t.Errorf("TotalEdges = %d, want 3", s.TotalEdges())
	}
}

func TestInitialGraphMode(t *testing.T) {
	s := NewInitialGraph(Options{Form: SF, Seed: 1})
	a := atoms(1)
	x := s.Fresh("X")
	y := s.Fresh("Y")
	s.AddConstraint(a[0], x)
	s.AddConstraint(x, y)
	// No closure: a0 must not have propagated to Y.
	vv, src, _ := s.EdgeCounts()
	if vv != 1 || src != 1 {
		t.Errorf("initial graph EdgeCounts = (%d,%d), want (1,1)", vv, src)
	}
}

func TestCollapseCyclesOffline(t *testing.T) {
	s := NewSystem(Options{Form: IF, Cycles: CycleNone, Seed: 9})
	vars := make([]*Var, 6)
	for i := range vars {
		vars[i] = s.Fresh(fmt.Sprintf("v%d", i))
	}
	for i := range vars {
		s.AddConstraint(vars[i], vars[(i+1)%len(vars)])
	}
	n := s.CollapseCycles()
	if n != len(vars)-1 {
		t.Errorf("CollapseCycles = %d, want %d", n, len(vars)-1)
	}
	w := s.Find(vars[0])
	for _, v := range vars[1:] {
		if s.Find(v) != w {
			t.Errorf("offline collapse left %s unmerged", v)
		}
	}
}

func TestFreshDeterminism(t *testing.T) {
	s1 := NewSystem(Options{Form: IF, Seed: 77})
	s2 := NewSystem(Options{Form: IF, Seed: 77})
	for i := 0; i < 100; i++ {
		a := s1.Fresh("x")
		b := s2.Fresh("x")
		if a.Order() != b.Order() || a.ID() != b.ID() {
			t.Fatalf("variable order not reproducible at index %d", i)
		}
	}
}

func TestTermValidation(t *testing.T) {
	box := NewConstructor("box", Covariant)
	defer func() {
		if recover() == nil {
			t.Errorf("arity mismatch did not panic")
		}
	}()
	NewTerm(box) // wrong arity
}

func TestStatsString(t *testing.T) {
	s := randomSystem(t, IF, CycleOnline, 5, 50, 150)
	if s.Stats().String() == "" {
		t.Error("empty stats string")
	}
	if s.Stats().CycleSearches > 0 && s.Stats().VisitsPerSearch() <= 0 {
		t.Error("VisitsPerSearch inconsistent")
	}
}
