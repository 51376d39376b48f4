package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"polce/internal/core/graph"
)

// TestLSMonotonic: adding constraints can only grow least solutions.
func TestLSMonotonic(t *testing.T) {
	property := func(seed16 uint16) bool {
		seed := int64(seed16)
		ops := genScript(seed, 40, 160)
		s := NewSystem(Options{Form: IF, Cycles: CycleOnline, Seed: seed})
		var vars []*Var
		prev := map[int]int{} // var index → |LS| seen so far
		for i, op := range ops {
			if op.fresh {
				vars = append(vars, s.Fresh(fmt.Sprintf("v%d", len(vars))))
				continue
			}
			s.AddConstraint(op.l.build(vars), op.r.build(vars))
			if i%37 == 0 { // sample: full recomputation is expensive
				for j, v := range vars {
					n := len(lsAtoms(s, v))
					if n < prev[j] {
						t.Logf("seed %d: LS(v%d) shrank from %d to %d", seed, j, prev[j], n)
						return false
					}
					prev[j] = n
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestIdempotentReAdd: re-adding every constraint of a solved system —
// the same expression objects, since terms are identified by pointer —
// changes nothing: no new edges, no new collapses, identical least
// solutions.
func TestIdempotentReAdd(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		ops := genScript(seed, 50, 180)
		s := NewSystem(Options{Form: IF, Cycles: CycleOnline, Seed: seed})
		var vars []*Var
		type pair struct{ l, r Expr }
		var added []pair
		for _, op := range ops {
			if op.fresh {
				vars = append(vars, s.Fresh(fmt.Sprintf("v%d", len(vars))))
				continue
			}
			p := pair{op.l.build(vars), op.r.build(vars)}
			added = append(added, p)
			s.AddConstraint(p.l, p.r)
		}

		before := make([][]string, len(vars))
		for i, v := range vars {
			before[i] = lsNames(s, v)
		}
		edgesBefore := s.TotalEdges()
		elimBefore := s.Stats().VarsEliminated

		for _, p := range added {
			s.AddConstraint(p.l, p.r)
		}

		if got := s.TotalEdges(); got != edgesBefore {
			t.Fatalf("seed %d: edges changed on re-add: %d -> %d", seed, edgesBefore, got)
		}
		if got := s.Stats().VarsEliminated; got != elimBefore {
			t.Fatalf("seed %d: re-add collapsed more variables: %d -> %d", seed, elimBefore, got)
		}
		for i, v := range vars {
			if fmt.Sprint(lsNames(s, v)) != fmt.Sprint(before[i]) {
				t.Fatalf("seed %d: LS(v%d) changed on re-add", seed, i)
			}
		}
	}
}

// TestFindIdempotentAndAcyclic: union-find representatives are stable
// fixpoints and forwarding chains terminate.
func TestFindIdempotentAndAcyclic(t *testing.T) {
	s := randomSystem(t, IF, CycleOnline, 21, 150, 500)
	for i := 0; i < s.NumCreated(); i++ {
		v := s.CreatedVar(i)
		r := find(v)
		if find(r) != r {
			t.Fatalf("find not idempotent for %s", v)
		}
		if r.Forwarded() {
			t.Fatalf("representative %s has a parent", r)
		}
	}
}

// TestMergedVarsShareLS: every variable merged into a witness has exactly
// the witness's least solution — cycle collapse means equality in all
// solutions.
func TestMergedVarsShareLS(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		s := randomSystem(t, IF, CycleOnline, seed, 100, 400)
		for i := 0; i < s.NumCreated(); i++ {
			v := s.CreatedVar(i)
			w := find(v)
			if v == w {
				continue
			}
			if fmt.Sprint(lsNames(s, v)) != fmt.Sprint(lsNames(s, w)) {
				t.Fatalf("seed %d: merged var %s disagrees with witness %s", seed, v, w)
			}
		}
	}
}

// TestWorkloadOrderIndependence: the final least solutions do not depend
// on the order constraints arrive in (set-constraint systems are
// order-insensitive even though the collapse history is not).
func TestWorkloadOrderIndependence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		ops := genScript(seed, 40, 150)
		forward, fv := runScript(Options{Form: IF, Cycles: CycleOnline, Seed: seed}, ops)

		// Reverse only the constraint ops, keeping creations first.
		var creates, constraints []scriptOp
		for _, op := range ops {
			if op.fresh {
				creates = append(creates, op)
			} else {
				constraints = append(constraints, op)
			}
		}
		for i, j := 0, len(constraints)-1; i < j; i, j = i+1, j-1 {
			constraints[i], constraints[j] = constraints[j], constraints[i]
		}
		reversed := append(append([]scriptOp{}, creates...), constraints...)
		backward, bv := runScript(Options{Form: IF, Cycles: CycleOnline, Seed: seed}, reversed)

		for i := range fv {
			a := fmt.Sprint(lsNames(forward, fv[i]))
			b := fmt.Sprint(lsNames(backward, bv[i]))
			if a != b {
				t.Fatalf("seed %d: order-dependent result at v%d:\n%s\n%s", seed, i, a, b)
			}
		}
	}
}

// TestOrderStrategiesAgree: the least solution is independent of the
// order strategy (only the collapse history and work counters vary).
func TestOrderStrategiesAgree(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		ops := genScript(seed, 50, 180)
		ref, refVars := runScript(Options{Form: IF, Cycles: CycleOnline, Seed: seed, Order: OrderRandom}, ops)
		for _, strat := range []OrderStrategy{OrderCreation, OrderReverseCreation} {
			s, vars := runScript(Options{Form: IF, Cycles: CycleOnline, Seed: seed, Order: strat}, ops)
			for i, v := range vars {
				if fmt.Sprint(lsNames(s, v)) != fmt.Sprint(lsNames(ref, refVars[i])) {
					t.Fatalf("seed %d order %v: LS differs at v%d", seed, strat, i)
				}
			}
		}
	}
}

func TestOrderStrategyAssignment(t *testing.T) {
	s := NewSystem(Options{Form: IF, Order: OrderCreation, Seed: 1})
	a := s.Fresh("a")
	b := s.Fresh("b")
	if !before(a, b) {
		t.Error("creation order not increasing")
	}
	s2 := NewSystem(Options{Form: IF, Order: OrderReverseCreation, Seed: 1})
	c := s2.Fresh("c")
	d := s2.Fresh("d")
	if !before(d, c) {
		t.Error("reverse creation order not decreasing")
	}
	for _, strat := range []OrderStrategy{OrderRandom, OrderCreation, OrderReverseCreation} {
		if strat.String() == "?" {
			t.Errorf("strategy %d unnamed", strat)
		}
	}
}

// TestHybridSetEdgeCountsAcrossConfigs checks the observational property
// at the graph level: over random constraint streams with collapses, the
// closed-graph edge counts agree across forms, policies and seeds exactly
// as they did under the map-backed sets (edge counts are a property of the
// constraint system, not of the adjacency representation).
func TestHybridSetEdgeCountsAcrossConfigs(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		ops := genScript(seed, 50, 180)
		// Within one form+policy, edge counts must be identical for any
		// variable order after full offline collapse.
		type cell struct {
			form Form
			pol  CyclePolicy
		}
		for _, c := range []cell{{IF, CycleOnline}, {SF, CycleOnline}, {IF, CycleNone}} {
			s1, _ := runScript(Options{Form: c.form, Cycles: c.pol, Seed: seed}, ops)
			s2, _ := runScript(Options{Form: c.form, Cycles: c.pol, Seed: seed}, ops)
			a1, b1, c1 := s1.EdgeCounts()
			a2, b2, c2 := s2.EdgeCounts()
			if a1 != a2 || b1 != b2 || c1 != c2 {
				t.Fatalf("seed %d %v/%v: duplicate runs disagree on edge counts (%d,%d,%d) vs (%d,%d,%d)",
					seed, c.form, c.pol, a1, b1, c1, a2, b2, c2)
			}
			// Replaying the closed system's atomic edges into a fresh map
			// of canonical endpoints must match the counted totals — the
			// hybrid sets hold no duplicates and no self-edges.
			s1.CollapseCycles()
			vv, src, snk := s1.EdgeCounts()
			seenVV := map[[2]*Var]bool{}
			seenSrc := map[*Var]map[*Term]bool{}
			seenSnk := map[*Var]map[*Term]bool{}
			for _, v := range s1.CanonicalVars() {
				s1.store.Clean(v.DenseID())
				for _, w := range varsOf(s1, v, graph.SuccV) {
					if v == w {
						t.Fatalf("seed %d: self succ edge survived compaction", seed)
					}
					seenVV[[2]*Var{v, w}] = true
				}
				for _, w := range varsOf(s1, v, graph.PredV) {
					seenVV[[2]*Var{w, v}] = true
				}
				if seenSrc[v] == nil {
					seenSrc[v] = map[*Term]bool{}
				}
				for _, tm := range s1.store.Terms(s1.store.TermIDs(v.DenseID(), graph.PredS)) {
					if seenSrc[v][tm] {
						t.Fatalf("seed %d: duplicate source edge", seed)
					}
					seenSrc[v][tm] = true
				}
				if seenSnk[v] == nil {
					seenSnk[v] = map[*Term]bool{}
				}
				for _, tm := range s1.store.Terms(s1.store.TermIDs(v.DenseID(), graph.SuccK)) {
					if seenSnk[v][tm] {
						t.Fatalf("seed %d: duplicate sink edge", seed)
					}
					seenSnk[v][tm] = true
				}
			}
			var srcN, snkN int
			for _, m := range seenSrc {
				srcN += len(m)
			}
			for _, m := range seenSnk {
				snkN += len(m)
			}
			if len(seenVV) != vv || srcN != src || snkN != snk {
				t.Fatalf("seed %d %v/%v: EdgeCounts (%d,%d,%d) != recount (%d,%d,%d)",
					seed, c.form, c.pol, vv, src, snk, len(seenVV), srcN, snkN)
			}
		}
	}
}

// TestStressManyCollapses drives a workload designed to merge almost
// everything, checking the adjacency canonicalisation machinery under
// heavy forwarding.
func TestStressManyCollapses(t *testing.T) {
	for _, form := range []Form{SF, IF} {
		s := NewSystem(Options{Form: form, Cycles: CycleOnline, Seed: 5})
		a := atoms(2)
		const n = 200
		vars := make([]*Var, n)
		for i := range vars {
			vars[i] = s.Fresh(fmt.Sprintf("v%d", i))
		}
		// Ring + chords: one giant SCC in the end.
		for i := 0; i < n; i++ {
			s.AddConstraint(vars[i], vars[(i+1)%n])
		}
		for i := 0; i < n; i += 3 {
			s.AddConstraint(vars[(i+n/2)%n], vars[i])
		}
		s.AddConstraint(a[0], vars[0])
		s.AddConstraint(vars[n-1], vars[0])
		// Force any stragglers together offline and verify the result is
		// consistent.
		s.CollapseCycles()
		w := s.Find(vars[0])
		for _, v := range vars {
			if s.Find(v) != w {
				t.Fatalf("%v: ring not fully merged", form)
			}
		}
		if got := lsNames(s, vars[n/2]); len(got) != 1 || got[0] != "a0" {
			t.Fatalf("%v: LS after heavy merging = %v", form, got)
		}
	}
}
