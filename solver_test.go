package polce_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"polce"
)

func atoms(n int) []*polce.Term {
	out := make([]*polce.Term, n)
	for i := range out {
		out[i] = polce.NewTerm(polce.NewConstructor(fmt.Sprintf("a%d", i)))
	}
	return out
}

func lsNames(terms []*polce.Term) []string {
	out := make([]string, len(terms))
	for i, t := range terms {
		out[i] = t.String()
	}
	return out
}

// TestFacadeBasics drives the whole public surface once: construction,
// ingestion, least solutions, stats, graph inspection and DOT output.
func TestFacadeBasics(t *testing.T) {
	for _, form := range []polce.Form{polce.SF, polce.IF} {
		s := polce.New(polce.Options{Form: form, Cycles: polce.CycleOnline, Seed: 3})
		a := atoms(2)
		x := s.Fresh("X")
		y := s.Fresh("Y")
		z := s.Fresh("Z")
		s.AddConstraint(a[0], x)
		s.AddConstraint(x, y)
		s.AddConstraint(y, z)
		s.AddConstraint(a[1], y)
		s.ComputeLeastSolutions()

		if got := lsNames(s.LeastSolution(z)); len(got) != 2 {
			t.Fatalf("%v: LS(Z) = %v, want both atoms", form, got)
		}
		if s.Form() != form {
			t.Errorf("Form() = %v, want %v", s.Form(), form)
		}
		if s.Policy() != polce.CycleOnline {
			t.Errorf("Policy() = %v", s.Policy())
		}
		if s.NumCreated() != 3 || s.Stats().VarsCreated != 3 {
			t.Errorf("%v: created %d vars, stats %d", form, s.NumCreated(), s.Stats().VarsCreated)
		}
		if s.CreatedVar(0) != x || s.Find(x) != x {
			t.Errorf("%v: handle bookkeeping broken", form)
		}
		if got := len(s.CanonicalVars()); got != 3 {
			t.Errorf("%v: %d canonical vars, want 3", form, got)
		}
		if vv, src, _ := s.EdgeCounts(); vv != 2 || src < 2 || s.TotalEdges() < 4 {
			t.Errorf("%v: edge counts vv=%d src=%d total=%d", form, vv, src, s.TotalEdges())
		}
		if st := s.CurrentGraphStats(); st.Vars != 3 {
			t.Errorf("%v: graph stats %+v", form, st)
		}
		if s.ErrorCount() != 0 || len(s.Errors()) != 0 {
			t.Errorf("%v: unexpected errors %v", form, s.Errors())
		}
		var sb strings.Builder
		if err := s.WriteDOT(&sb); err != nil || !strings.Contains(sb.String(), "digraph") {
			t.Errorf("%v: WriteDOT err=%v out=%q", form, err, sb.String())
		}
	}
}

// TestAddBatchMatchesSequential pins AddBatch's contract: a batch is
// exactly the same sequence of online AddConstraint steps under one lock.
func TestAddBatchMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := atoms(4)
		// An index-based script, instantiated per solver: each solver gets
		// its own Var objects, so the two runs cannot contaminate each other
		// through shared variable state.
		type op struct{ atom, l, r int } // atom < 0: var l ⊆ var r
		var script []op
		for i := 0; i < 120; i++ {
			if rng.Intn(4) == 0 {
				script = append(script, op{rng.Intn(len(a)), 0, rng.Intn(30)})
			} else {
				script = append(script, op{-1, rng.Intn(30), rng.Intn(30)})
			}
		}
		build := func() (*polce.Solver, []*polce.Var, []polce.Constraint) {
			s := polce.New(polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: seed})
			vars := make([]*polce.Var, 30)
			for i := range vars {
				vars[i] = s.Fresh(fmt.Sprintf("v%d", i))
			}
			cs := make([]polce.Constraint, len(script))
			for i, o := range script {
				if o.atom >= 0 {
					cs[i] = polce.Constraint{L: a[o.atom], R: vars[o.r]}
				} else {
					cs[i] = polce.Constraint{L: vars[o.l], R: vars[o.r]}
				}
			}
			return s, vars, cs
		}

		s1, v1, cs1 := build()
		for _, c := range cs1 {
			s1.AddConstraint(c.L, c.R)
		}
		s2, v2, cs2 := build()
		s2.AddBatch(cs2)

		if s1.Stats() != s2.Stats() {
			t.Fatalf("seed %d: stats diverge:\n%+v\n%+v", seed, s1.Stats(), s2.Stats())
		}
		for i := range v1 {
			a := fmt.Sprint(lsNames(s1.LeastSolution(v1[i])))
			b := fmt.Sprint(lsNames(s2.LeastSolution(v2[i])))
			if a != b {
				t.Fatalf("seed %d: LS(v%d) diverges: %s vs %s", seed, i, a, b)
			}
		}
	}
}

// TestCollapseAndOracleThroughFacade exercises the cycle surface: online
// collapse, offline CollapseCycles, CycleClassStats, and the
// BuildOracle → CycleOracle round trip.
func TestCollapseAndOracleThroughFacade(t *testing.T) {
	a := atoms(1)
	build := func(opt polce.Options) (*polce.Solver, []*polce.Var) {
		s := polce.New(opt)
		vars := make([]*polce.Var, 10)
		for i := range vars {
			vars[i] = s.Fresh(fmt.Sprintf("v%d", i))
		}
		s.AddConstraint(a[0], vars[0])
		for i := range vars {
			s.AddConstraint(vars[i], vars[(i+1)%len(vars)])
		}
		return s, vars
	}

	plain, pv := build(polce.Options{Form: polce.IF, Cycles: polce.CycleNone, Seed: 5})
	if in, max := plain.CycleClassStats(); in != 10 || max != 10 {
		t.Fatalf("cycle classes: in=%d max=%d, want 10/10", in, max)
	}
	if n := plain.CollapseCycles(); n == 0 {
		t.Fatal("offline collapse found nothing")
	}
	if plain.Find(pv[3]) != plain.Find(pv[7]) {
		t.Fatal("ring not merged after CollapseCycles")
	}

	online, _ := build(polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 5})
	oracle := polce.BuildOracle(online)
	if oracle.Len() != 10 {
		t.Fatalf("oracle len = %d", oracle.Len())
	}
	guided, gv := build(polce.Options{Form: polce.IF, Cycles: polce.CycleOracle, Oracle: oracle, Seed: 5})
	if guided.Stats().VarsEliminated != 9 {
		t.Fatalf("oracle eliminated %d vars, want 9", guided.Stats().VarsEliminated)
	}
	if got := lsNames(guided.LeastSolution(gv[6])); len(got) != 1 || got[0] != "a0" {
		t.Fatalf("oracle-guided LS = %v", got)
	}
}

// TestInitialGraphFacade checks NewInitialGraph skips closure.
func TestInitialGraphFacade(t *testing.T) {
	a := atoms(1)
	s := polce.NewInitialGraph(polce.Options{Form: polce.SF, Seed: 1})
	x := s.Fresh("X")
	y := s.Fresh("Y")
	s.AddConstraint(a[0], x)
	s.AddConstraint(x, y)
	if vv, src, _ := s.EdgeCounts(); vv != 1 || src != 1 {
		t.Fatalf("initial graph propagated: vv=%d src=%d", vv, src)
	}
}

// TestParseFormAndCyclePolicy pins the names every command accepts for
// -form and -cycles, in any case, and the ones it must refuse.
func TestParseFormAndCyclePolicy(t *testing.T) {
	forms := map[string]polce.Form{"sf": polce.SF, "SF": polce.SF, "If": polce.IF}
	for s, want := range forms {
		if got, err := polce.ParseForm(s); err != nil || got != want {
			t.Errorf("ParseForm(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	policies := map[string]polce.CyclePolicy{
		"none": polce.CycleNone, "Plain": polce.CycleNone,
		"ONLINE":      polce.CycleOnline,
		"online-incr": polce.CycleOnlineIncreasing, "incr": polce.CycleOnlineIncreasing,
		"Online+Incr": polce.CycleOnlineIncreasing,
		"periodic":    polce.CyclePeriodic,
	}
	for s, want := range policies {
		if got, err := polce.ParseCyclePolicy(s); err != nil || got != want {
			t.Errorf("ParseCyclePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "xf", "sf "} {
		if got, err := polce.ParseForm(s); err == nil {
			t.Errorf("ParseForm(%q) accepted as %v", s, got)
		}
	}
	for _, s := range []string{"", "oracle", "Oracle", "?"} {
		if got, err := polce.ParseCyclePolicy(s); err == nil {
			t.Errorf("ParseCyclePolicy(%q) accepted as %v", s, got)
		}
	}
}
