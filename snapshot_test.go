package polce_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"polce"
)

// TestSnapshotCaching pins the epoch guard: snapshots of an unchanged
// graph are the same object, and any least-solution-changing mutation
// produces a fresh one.
func TestSnapshotCaching(t *testing.T) {
	for _, form := range []polce.Form{polce.SF, polce.IF} {
		s := polce.New(polce.Options{Form: form, Cycles: polce.CycleOnline, Seed: 9})
		a := atoms(2)
		x := s.Fresh("X")
		y := s.Fresh("Y")
		s.AddConstraint(a[0], x)
		s.AddConstraint(x, y)

		s1 := s.Snapshot()
		if s2 := s.Snapshot(); s2 != s1 {
			t.Fatalf("%v: unchanged graph rebuilt the snapshot", form)
		}
		// A redundant re-add leaves the version, and hence the snapshot,
		// untouched.
		s.AddConstraint(a[0], x)
		if s2 := s.Snapshot(); s2 != s1 {
			t.Fatalf("%v: redundant re-add invalidated the snapshot", form)
		}
		s.AddConstraint(a[1], y)
		s3 := s.Snapshot()
		if s3 == s1 || s3.Version() <= s1.Version() {
			t.Fatalf("%v: mutation did not advance the snapshot", form)
		}
		if got := lsNames(s1.LeastSolution(y)); len(got) != 1 {
			t.Fatalf("%v: old snapshot LS(Y) = %v, want 1 atom", form, got)
		}
		if got := lsNames(s3.LeastSolution(y)); len(got) != 2 {
			t.Fatalf("%v: new snapshot LS(Y) = %v, want 2 atoms", form, got)
		}
		if s3.Form() != form || s3.NumVars() != 2 {
			t.Fatalf("%v: snapshot meta form=%v vars=%d", form, s3.Form(), s3.NumVars())
		}
	}
}

// TestSnapshotIsolation checks that a captured snapshot is frozen: later
// ingestion, collapses included, must not change what an old snapshot
// reports.
func TestSnapshotIsolation(t *testing.T) {
	for _, form := range []polce.Form{polce.SF, polce.IF} {
		s := polce.New(polce.Options{Form: form, Cycles: polce.CycleOnline, Seed: 11})
		a := atoms(8)
		vars := make([]*polce.Var, 40)
		for i := range vars {
			vars[i] = s.Fresh(fmt.Sprintf("v%d", i))
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 80; i++ {
			s.AddConstraint(a[rng.Intn(len(a))], vars[rng.Intn(len(vars))])
			s.AddConstraint(vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))])
		}
		snap := s.Snapshot()
		frozen := make([][]string, len(vars))
		for i, v := range vars {
			frozen[i] = lsNames(snap.LeastSolution(v))
		}
		// Keep ingesting, forcing plenty of new sources and collapses.
		for i := 0; i < 200; i++ {
			s.AddConstraint(a[rng.Intn(len(a))], vars[rng.Intn(len(vars))])
			s.AddConstraint(vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))])
		}
		s.ComputeLeastSolutions()
		for i, v := range vars {
			if got := lsNames(snap.LeastSolution(v)); fmt.Sprint(got) != fmt.Sprint(frozen[i]) {
				t.Fatalf("%v: snapshot LS(v%d) drifted:\nbefore %v\nafter  %v", form, i, frozen[i], got)
			}
		}
	}
}

// TestSnapshotConcurrentQueries is the headline concurrency test: one
// goroutine ingests constraint batches while five reader goroutines race
// it, each taking snapshots and checking two invariants — snapshot
// versions never go backwards, and least solutions only grow (the system
// is monotone). Run under -race this also proves the capture/read paths
// are race-clean.
func TestSnapshotConcurrentQueries(t *testing.T) {
	for _, form := range []polce.Form{polce.SF, polce.IF} {
		t.Run(form.String(), func(t *testing.T) {
			s := polce.New(polce.Options{Form: form, Cycles: polce.CycleOnline, Seed: 17})
			const nVars = 120
			vars := make([]*polce.Var, nVars)
			for i := range vars {
				vars[i] = s.Fresh(fmt.Sprintf("v%d", i))
			}
			a := atoms(16)

			done := make(chan struct{})
			errc := make(chan error, 8)
			var wg sync.WaitGroup

			wg.Add(1)
			go func() { // ingestion
				defer wg.Done()
				defer close(done)
				rng := rand.New(rand.NewSource(23))
				for i := 0; i < 300; i++ {
					batch := make([]polce.Constraint, 0, 8)
					for j := 0; j < 8; j++ {
						if rng.Intn(3) == 0 {
							batch = append(batch, polce.Constraint{
								L: a[rng.Intn(len(a))], R: vars[rng.Intn(nVars)]})
						} else {
							batch = append(batch, polce.Constraint{
								L: vars[rng.Intn(nVars)], R: vars[rng.Intn(nVars)]})
						}
					}
					s.AddBatch(batch)
				}
			}()

			const readers = 5
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					var lastVersion uint64
					sizes := make([]int, nVars)
					snaps := 0
					for alive := true; alive; {
						select {
						case <-done:
							alive = false // one final snapshot after ingestion
						default:
						}
						snap := s.Snapshot()
						if snap.Version() < lastVersion {
							errc <- fmt.Errorf("reader %d: version went backwards: %d -> %d",
								r, lastVersion, snap.Version())
							return
						}
						lastVersion = snap.Version()
						for i, v := range vars {
							n := len(snap.LeastSolution(v))
							if n < sizes[i] {
								errc <- fmt.Errorf("reader %d: LS(v%d) shrank %d -> %d",
									r, i, sizes[i], n)
								return
							}
							sizes[i] = n
						}
						snaps++
					}
					if snaps == 0 {
						errc <- fmt.Errorf("reader %d took no snapshots", r)
					}
				}(r)
			}

			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}

			// All readers' final snapshots and the live solver agree.
			final := s.Snapshot()
			for _, v := range vars {
				want := fmt.Sprint(lsNames(s.LeastSolution(v)))
				if got := fmt.Sprint(lsNames(final.LeastSolution(v))); got != want {
					t.Fatalf("final snapshot diverges from live LS: %s vs %s", got, want)
				}
			}
		})
	}
}

// TestCSRSnapshotsDuringCompaction races concurrent snapshot readers
// against heavy ingestion whose cycle collapses release the absorbed
// variables' set storage at the end of each drain, and whose offline pass
// compacts the live variable list. Snapshots must stay isolated from
// both: a retained snapshot's least solutions are frozen, live readers
// see monotone versions, and under -race the whole
// capture/read/collapse interleaving must be clean. The name is kept
// from when the test raced arena (CSR) compaction, so its id stays
// stable across commits.
func TestCSRSnapshotsDuringCompaction(t *testing.T) {
	for _, form := range []polce.Form{polce.SF, polce.IF} {
		t.Run(form.String(), func(t *testing.T) {
			s := polce.New(polce.Options{Form: form, Cycles: polce.CycleOnline, Seed: 29})
			const (
				nVars    = 1000
				blockLen = 100 // vars per collapsed cycle block
			)
			a := atoms(128)
			vars := make([]*polce.Var, nVars)
			for i := range vars {
				vars[i] = s.Fresh(fmt.Sprintf("v%d", i))
			}
			// Seed every variable with sources so the collapses below
			// release real term-set storage, then take the snapshot whose
			// stability across them the test asserts.
			rng := rand.New(rand.NewSource(31))
			for i := range vars {
				for j := 0; j < 20; j++ {
					s.AddConstraint(a[rng.Intn(len(a))], vars[i])
				}
			}
			early := s.Snapshot()
			frozen := make([][]string, len(vars))
			for i, v := range vars {
				frozen[i] = lsNames(early.LeastSolution(v))
			}

			done := make(chan struct{})
			errc := make(chan error, 8)
			var wg sync.WaitGroup

			wg.Add(1)
			go func() { // ingestion: edges plus block cycles that collapse
				defer wg.Done()
				defer close(done)
				for base := 0; base+blockLen <= nVars; base += blockLen {
					batch := make([]polce.Constraint, 0, blockLen+1)
					for i := 0; i < blockLen-1; i++ {
						batch = append(batch, polce.Constraint{
							L: vars[base+i], R: vars[base+i+1]})
					}
					// Close the block into a cycle: one collapse of
					// blockLen variables, releasing their set storage.
					batch = append(batch, polce.Constraint{
						L: vars[base+blockLen-1], R: vars[base]})
					s.AddBatch(batch)
				}
				// Second wave: ring the block witnesses together, collapsing
				// the merged (much larger) term sets too.
				for base := 0; base < nVars; base += blockLen {
					s.AddConstraint(vars[base], vars[(base+blockLen)%nVars])
				}
				// Online elimination is partial by design; the offline pass
				// collapses the cycles it missed.
				s.CollapseCycles()
			}()

			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) { // readers
					defer wg.Done()
					var lastVersion uint64
					rng := rand.New(rand.NewSource(int64(100 + r)))
					for {
						select {
						case <-done:
							return
						default:
						}
						snap := s.Snapshot()
						if v := snap.Version(); v < lastVersion {
							errc <- fmt.Errorf("reader %d: version went backwards: %d then %d", r, lastVersion, v)
							return
						} else {
							lastVersion = v
						}
						for j := 0; j < 20; j++ {
							_ = snap.LeastSolution(vars[rng.Intn(nVars)])
						}
					}
				}(r)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}

			// The retained snapshot must be bit-for-bit what it was before
			// any collapse or compaction ran.
			for i, v := range vars {
				if got := lsNames(early.LeastSolution(v)); fmt.Sprint(got) != fmt.Sprint(frozen[i]) {
					t.Fatalf("%v: early snapshot LS(v%d) drifted:\nbefore %v\nafter  %v", form, i, frozen[i], got)
				}
			}
			// Every variable lies on one strongly connected component, so
			// all but one must have been merged away and released; without
			// this the test would not exercise release under readers.
			if got := s.Stats().VarsEliminated; got != nVars-1 {
				t.Fatalf("%d variables eliminated, want %d", got, nVars-1)
			}
		})
	}
}

// TestSnapshotIntrospection checks the debug-surface data captured with a
// snapshot: graph stats, collapsed-class sizes, LS cache state and the
// top-k ranking — all answered from the frozen capture, so an old
// snapshot keeps its numbers while the solver moves on.
func TestSnapshotIntrospection(t *testing.T) {
	s := polce.New(polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 3})
	a := atoms(4)
	x := s.Fresh("X")
	y := s.Fresh("Y")
	z := s.Fresh("Z")
	big := s.Fresh("Big")
	for _, t := range a {
		s.AddConstraint(t, big)
	}
	s.AddConstraint(a[0], x)
	// Collapse {X, Y, Z} into one class.
	s.AddConstraint(x, y)
	s.AddConstraint(y, z)
	s.AddConstraint(z, x)

	sn := s.Snapshot()
	if g := sn.Graph(); g.Vars <= 0 || g.VarVarEdges+g.SourceEdges+g.SinkEdges <= 0 {
		t.Fatalf("snapshot graph stats empty: %+v", g)
	}
	classes := sn.CollapsedClasses()
	if len(classes) != 1 || classes[0] != 3 {
		t.Fatalf("collapsed classes = %v, want [3]", classes)
	}
	eliminated := 0
	for _, sz := range classes {
		eliminated += sz - 1
	}
	if eliminated != sn.Stats().VarsEliminated {
		t.Fatalf("classes imply %d eliminated vars, stats say %d", eliminated, sn.Stats().VarsEliminated)
	}
	if lc := sn.LSCache(); !lc.Hot || lc.InternedNodes == 0 {
		t.Fatalf("LS cache after capture = %+v, want hot with interned nodes", lc)
	}

	top := sn.Top(2)
	if len(top) != 2 || top[0].Var.Name() != "Big" || top[0].Terms != 4 {
		t.Fatalf("Top(2) = %+v, want Big with 4 terms first", top)
	}
	if top[1].Terms > top[0].Terms {
		t.Fatalf("Top(2) not sorted: %+v", top)
	}
	if got := sn.Top(0); got != nil {
		t.Fatalf("Top(0) = %v, want nil", got)
	}
	if got := sn.Top(100); len(got) != sn.NumVars() {
		t.Fatalf("Top(100) returned %d entries, want all %d", len(got), sn.NumVars())
	}

	// Ties rank by name, so repeated calls are deterministic.
	t1, t2 := fmt.Sprint(sn.Top(100)), fmt.Sprint(sn.Top(100))
	if t1 != t2 {
		t.Fatalf("Top is nondeterministic:\n%s\n%s", t1, t2)
	}

	// The capture is frozen: more ingestion must not change it.
	w := s.Fresh("W")
	s.AddConstraint(a[1], w)
	s.AddConstraint(w, x)
	if got := fmt.Sprint(sn.CollapsedClasses()); got != fmt.Sprint(classes) {
		t.Fatalf("old snapshot classes changed after ingestion: %v", got)
	}
	if sn2 := s.Snapshot(); len(sn2.CollapsedClasses()) == 0 {
		t.Fatalf("new snapshot lost collapsed classes")
	}
}

// TestSnapshotIntrospectionSF covers the standard-form capture: the LS
// cache reports hot (the closed graph is the solution) and the class
// accounting still matches the stats.
func TestSnapshotIntrospectionSF(t *testing.T) {
	s := polce.New(polce.Options{Form: polce.SF, Cycles: polce.CycleOnline, Seed: 3})
	a := atoms(1)
	x := s.Fresh("X")
	y := s.Fresh("Y")
	s.AddConstraint(a[0], x)
	s.AddConstraint(x, y)
	s.AddConstraint(y, x)
	sn := s.Snapshot()
	if !sn.LSCache().Hot {
		t.Fatalf("SF LS cache = %+v, want hot", sn.LSCache())
	}
	if classes := sn.CollapsedClasses(); len(classes) != 1 || classes[0] != 2 {
		t.Fatalf("SF collapsed classes = %v, want [2]", classes)
	}
}
