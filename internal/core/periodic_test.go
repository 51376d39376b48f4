package core

import (
	"fmt"
	"strings"
	"testing"
)

func TestPeriodicEliminatesCycles(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		ops := genScript(seed, 80, 300)
		ref, refVars := runScript(Options{Form: SF, Cycles: CycleNone, Seed: seed}, ops)
		for _, form := range []Form{SF, IF} {
			s, vars := runScript(Options{Form: form, Cycles: CyclePeriodic, Seed: seed, PeriodicInterval: 50}, ops)
			st := s.Stats()
			if st.PeriodicSweeps == 0 {
				t.Fatalf("seed %d %v: no sweeps ran", seed, form)
			}
			// Correctness: least solutions must match the plain run.
			for i, v := range vars {
				want := lsNames(ref, refVars[i])
				got := lsNames(s, v)
				if fmt.Sprint(want) != fmt.Sprint(got) {
					t.Fatalf("seed %d %v: LS mismatch at v%d\n got %v\nwant %v", seed, form, i, got, want)
				}
			}
		}
	}
}

func TestPeriodicFindsAllCyclesEventually(t *testing.T) {
	// With a small interval, periodic sweeps catch every cyclic variable
	// that has materialised — unlike the partial online search, offline
	// Tarjan is complete over the current graph.
	ops := genScript(3, 100, 400)
	s, _ := runScript(Options{Form: IF, Cycles: CyclePeriodic, Seed: 3, PeriodicInterval: 25}, ops)
	inCycles, _ := s.CycleClassStats()
	// After the last sweep a few new cycles may have formed, so allow a
	// small tail, but the bulk must be eliminated.
	if elim := s.Stats().VarsEliminated; inCycles > 0 && elim == 0 {
		t.Fatalf("periodic eliminated nothing (%d cyclic vars)", inCycles)
	}
}

func TestPeriodicIntervalControlsSweepCount(t *testing.T) {
	ops := genScript(5, 80, 300)
	frequent, _ := runScript(Options{Form: IF, Cycles: CyclePeriodic, Seed: 5, PeriodicInterval: 20}, ops)
	rare, _ := runScript(Options{Form: IF, Cycles: CyclePeriodic, Seed: 5, PeriodicInterval: 2000}, ops)
	if frequent.Stats().PeriodicSweeps <= rare.Stats().PeriodicSweeps {
		t.Errorf("sweeps: frequent=%d rare=%d", frequent.Stats().PeriodicSweeps, rare.Stats().PeriodicSweeps)
	}
	if frequent.Stats().SweepVisits <= rare.Stats().SweepVisits {
		t.Errorf("sweep visits should grow with frequency: %d vs %d",
			frequent.Stats().SweepVisits, rare.Stats().SweepVisits)
	}
}

func TestPeriodicDefaultInterval(t *testing.T) {
	s := NewSystem(Options{Form: IF, Cycles: CyclePeriodic, Seed: 1})
	if s.sweepInterval != 1000 {
		t.Errorf("default interval = %d, want 1000", s.sweepInterval)
	}
}

func TestObserverEvents(t *testing.T) {
	var kinds []EventKind
	var collapsedVars int
	s := NewSystem(Options{
		Form: IF, Cycles: CycleOnline, Seed: 2,
		Observer: func(ev Event) {
			kinds = append(kinds, ev.Kind)
			if ev.Kind == EventCycle {
				collapsedVars += len(ev.Vars)
				if ev.Witness == nil {
					t.Error("cycle event without witness")
				}
			}
		},
	})
	a := atoms(1)
	x := s.Fresh("X")
	y := s.Fresh("Y")
	s.AddConstraint(a[0], x)
	s.AddConstraint(x, y)
	s.AddConstraint(y, x)

	counts := map[EventKind]int{}
	for _, k := range kinds {
		counts[k]++
	}
	if counts[EventSourceEdge] == 0 {
		t.Error("no source-edge event")
	}
	if counts[EventVarEdge] == 0 {
		t.Error("no var-edge event")
	}
	if counts[EventCycle] != 1 || collapsedVars != 1 {
		t.Errorf("cycle events=%d collapsed=%d, want 1/1", counts[EventCycle], collapsedVars)
	}
}

func TestObserverSweepEvent(t *testing.T) {
	sweeps := 0
	opt := Options{
		Form: SF, Cycles: CyclePeriodic, Seed: 3, PeriodicInterval: 10,
		Observer: func(ev Event) {
			if ev.Kind == EventSweep {
				sweeps++
			}
		},
	}
	s := NewSystem(opt)
	vars := make([]*Var, 20)
	for i := range vars {
		vars[i] = s.Fresh(fmt.Sprintf("v%d", i))
	}
	a := atoms(1)
	for i := range vars {
		s.AddConstraint(a[0], vars[i])
		s.AddConstraint(vars[i], vars[(i+1)%len(vars)])
	}
	if sweeps == 0 {
		t.Error("no sweep events observed")
	}
}

func TestEventKindString(t *testing.T) {
	for _, k := range []EventKind{EventSourceEdge, EventSinkEdge, EventVarEdge, EventCycle, EventSweep} {
		if k.String() == "?" {
			t.Errorf("kind %d unnamed", k)
		}
	}
	if EventKind(99).String() != "?" {
		t.Error("unknown kind should render ?")
	}
}

func TestWriteDOT(t *testing.T) {
	s := NewSystem(Options{Form: IF, Cycles: CycleOnline, Seed: 4})
	a := atoms(1)
	box := NewConstructor("box", Covariant)
	x := s.Fresh("X")
	y := s.Fresh("Y")
	s.AddConstraint(a[0], x)
	s.AddConstraint(x, y)
	s.AddConstraint(y, NewTerm(box, x))
	var sb strings.Builder
	if err := s.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph constraints", "\"X\"", "\"Y\"", "\"a0\"", "->", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	var sb2 strings.Builder
	if err := s.WriteDOT(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Error("DOT output not deterministic")
	}
}

func TestCurrentGraphStats(t *testing.T) {
	s := NewSystem(Options{Form: SF, Seed: 1})
	a := atoms(1)
	x := s.Fresh("X")
	y := s.Fresh("Y")
	s.AddConstraint(a[0], x)
	s.AddConstraint(x, y)
	st := s.CurrentGraphStats()
	if st.Vars != 2 || st.VarVarEdges != 1 || st.SourceEdges != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.Density <= 0 {
		t.Errorf("density = %v", st.Density)
	}
}

// The Theorem 5.2 density premise (closed graphs near k ≈ 2) is checked
// on realistic points-to workloads in internal/andersen's tests; the
// synthetic scripts here are deliberately atom-dense and not
// representative.
