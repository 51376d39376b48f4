package core

import (
	"fmt"
	"testing"
)

// checkLSAgainstReference asserts the engine's least solution equals the
// retained naive reference exactly — same terms, same first-reached
// order — for every canonical variable.
func checkLSAgainstReference(t *testing.T, s *System, ctx string) {
	t.Helper()
	s.ComputeLeastSolutions()
	ref := s.leastSolutionsReference()
	for _, v := range s.CanonicalVars() {
		got := s.LeastSolution(v)
		want := ref[v]
		if len(got) != len(want) {
			t.Fatalf("%s: LS(%s) engine has %d terms, reference %d", ctx, v.Name(), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: LS(%s)[%d] = %v, reference %v", ctx, v.Name(), i, got[i], want[i])
			}
		}
	}
}

// TestLSEngineMatchesReference is the engine's central property test: on
// random systems across orders, seeds and worker counts, the interned /
// level-parallel / incremental engine must reproduce the naive
// reference's output exactly — including after interleaved offline
// collapses and after incremental updates on a warm cache.
func TestLSEngineMatchesReference(t *testing.T) {
	for _, order := range []OrderStrategy{OrderRandom, OrderCreation, OrderReverseCreation} {
		for seed := int64(0); seed < 5; seed++ {
			for _, workers := range []int{1, 4} {
				const nv, nc = 60, 180
				ops := genScript(seed, nv, nc)
				s := NewSystem(Options{Form: IF, Cycles: CycleOnline, Seed: seed, Order: order, LSWorkers: workers})
				var vars []*Var
				apply := func(from, to int) {
					for _, op := range ops[from:to] {
						if op.fresh {
							vars = append(vars, s.Fresh(fmt.Sprintf("v%d", len(vars))))
							continue
						}
						s.AddConstraint(op.l.build(vars), op.r.build(vars))
					}
				}
				ctx := func(phase string) string {
					return fmt.Sprintf("order=%v seed=%d workers=%d %s", order, seed, workers, phase)
				}

				split := nv + nc/2
				apply(0, split)
				checkLSAgainstReference(t, s, ctx("half"))

				// Offline collapse on a warm cache, then verify again.
				s.CollapseCycles()
				checkLSAgainstReference(t, s, ctx("after-collapse"))

				// Incremental updates: the remaining constraints land on a
				// warm cache, so only dirty cones are recomputed.
				apply(split, len(ops))
				checkLSAgainstReference(t, s, ctx("full"))

				s.CollapseCycles()
				checkLSAgainstReference(t, s, ctx("final-collapse"))
			}
		}
	}
}

// TestRedundantConstraintKeepsLSCacheHot is the regression test for the
// cache-invalidation fix: re-adding constraints whose edges are already
// present must not trigger a new least-solution pass.
func TestRedundantConstraintKeepsLSCacheHot(t *testing.T) {
	s := NewSystem(Options{Form: IF, Cycles: CycleNone, Seed: 7})
	a := atoms(2)
	x, y := s.Fresh("X"), s.Fresh("Y")
	s.AddConstraint(a[0], x)
	s.AddConstraint(x, y)
	_ = s.LeastSolution(y)
	if got := s.Stats().LSPasses; got != 1 {
		t.Fatalf("after first query: LSPasses = %d, want 1", got)
	}

	s.AddConstraint(a[0], x)
	s.AddConstraint(x, y)
	if s.Stats().Redundant == 0 {
		t.Fatal("expected the re-added constraints to be redundant")
	}
	_ = s.LeastSolution(y)
	if got := s.Stats().LSPasses; got != 1 {
		t.Fatalf("redundant constraints invalidated the LS cache: LSPasses = %d, want 1", got)
	}

	// A genuinely new edge must invalidate.
	s.AddConstraint(a[1], y)
	_ = s.LeastSolution(y)
	if got := s.Stats().LSPasses; got != 2 {
		t.Fatalf("new constraint did not trigger a pass: LSPasses = %d, want 2", got)
	}
}

// TestLSIncrementalConeRecomputation pins the dirty-cone behaviour: after
// a warm full pass, a single new source edge recomputes only the marked
// variable and its downstream cone, not the whole graph.
func TestLSIncrementalConeRecomputation(t *testing.T) {
	const n = 12
	s := NewSystem(Options{Form: IF, Cycles: CycleNone, Seed: 1, Order: OrderCreation})
	a := atoms(2)
	vars := make([]*Var, n)
	for i := range vars {
		vars[i] = s.Fresh(fmt.Sprintf("c%d", i))
	}
	for i := 0; i+1 < n; i++ {
		s.AddConstraint(vars[i], vars[i+1]) // chain: c0 ⊆ c1 ⊆ ... ⊆ c11
	}
	s.AddConstraint(a[0], vars[0])
	s.ComputeLeastSolutions()
	st := s.Stats()
	if st.LSPasses != 1 || st.LSConeVars != n {
		t.Fatalf("first pass: passes=%d cone=%d, want 1 and %d", st.LSPasses, st.LSConeVars, n)
	}

	// New source in the middle: the cone is the marked variable plus its
	// order-downstream dependents (c6..c11), not the whole chain.
	s.AddConstraint(a[1], vars[6])
	s.ComputeLeastSolutions()
	st = s.Stats()
	if st.LSPasses != 2 {
		t.Fatalf("second pass: passes=%d, want 2", st.LSPasses)
	}
	if delta := st.LSConeVars - n; delta != n-6 {
		t.Fatalf("incremental cone recomputed %d vars, want %d", delta, n-6)
	}
	for i, v := range vars {
		names := lsNames(s, v)
		wantA1 := i >= 6
		hasA1 := false
		for _, nm := range names {
			if nm == a[1].String() {
				hasA1 = true
			}
		}
		if hasA1 != wantA1 {
			t.Fatalf("LS(c%d) = %v: a1 presence = %v, want %v", i, names, hasA1, wantA1)
		}
	}
}

// TestLSParallelBitIdentical runs the same script through a sequential
// and a parallel system and requires every variable's least solution to
// match term-for-term, in order — the engine's determinism contract.
func TestLSParallelBitIdentical(t *testing.T) {
	ops := genScript(3, 400, 1200)
	seq, seqVars := runScript(Options{Form: IF, Cycles: CycleOnline, Seed: 3, LSWorkers: 1}, ops)
	par, parVars := runScript(Options{Form: IF, Cycles: CycleOnline, Seed: 3, LSWorkers: 4}, ops)
	seq.ComputeLeastSolutions()
	par.ComputeLeastSolutions()
	if len(seqVars) != len(parVars) {
		t.Fatalf("variable counts differ: %d vs %d", len(seqVars), len(parVars))
	}
	for i := range seqVars {
		a := seq.LeastSolution(seqVars[i])
		b := par.LeastSolution(parVars[i])
		if len(a) != len(b) {
			t.Fatalf("LS(v%d): sequential %d terms, parallel %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j].String() != b[j].String() {
				t.Fatalf("LS(v%d)[%d]: sequential %v, parallel %v", i, j, a[j], b[j])
			}
		}
	}
}

// TestLSParallelPass exercises the level-parallel code path (the system
// is large enough that levels cross lsParallelThreshold) at both worker
// settings, including an incremental pass on a warm engine — this is the
// test the CI race job leans on for the pass's race-freedom.
func TestLSParallelPass(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s, vars := runScript(Options{Form: IF, Cycles: CycleOnline, Seed: 9, LSWorkers: workers}, genScript(9, 400, 1200))
		s.ComputeLeastSolutions()
		if got := s.Stats().LSPasses; got != 1 {
			t.Fatalf("workers=%d: LSPasses = %d, want 1", workers, got)
		}
		// Large nodes build their term index under sync.Once on first
		// probe; with 4 workers that happens inside the parallel levels,
		// which is what keeps the race job covering the build.
		indexed := 0
		for _, bucket := range s.lsEngine.interned {
			for _, n := range bucket {
				if n.index != nil {
					indexed++
				}
			}
		}
		if indexed == 0 {
			t.Fatalf("workers=%d: no node built its term index", workers)
		}
		// Warm-cache incremental pass.
		s.AddConstraint(atoms(1)[0], vars[0])
		s.ComputeLeastSolutions()
		if got := s.Stats().LSPasses; got != 2 {
			t.Fatalf("workers=%d: LSPasses = %d, want 2", workers, got)
		}
		if s.Stats().LSLevels == 0 {
			t.Fatalf("workers=%d: LSLevels not recorded", workers)
		}
	}
}
