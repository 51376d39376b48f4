package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// This file is the differential gate for constraint retraction: a live
// system interleaving adds and retracts must end bit-identical — partition
// signature and least solutions, element order included — to a fresh,
// non-retractable solve of the surviving batches in their original order.
// The specs below are pure data so the live run and every reference run
// construct their own variables and terms; both call Fresh for the full
// vocabulary in the same order, so the random total order o(·) aligns.

// rtTermSpec describes one constructed term: a constructor from rtCons and
// variable-index arguments (the arity fixes the length used).
type rtTermSpec struct {
	con  int
	args [2]int
}

// rtConSpec is one constraint: kind selects the expression shapes, a/b are
// variable indices, s/t term-spec indices.
type rtConSpec struct {
	kind uint8 // 0: Va ⊆ Vb, 1: Ts ⊆ Va, 2: Va ⊆ Ts, 3: Ts ⊆ Tt
	a, b int
	s, t int
}

// rtEnv is one solver run over a shared spec vocabulary.
type rtEnv struct {
	sys   *System
	vars  []*Var
	terms []*Term
}

// rtConstructors builds the run's constructor pool: a nullary leaf, unary
// covariant, binary mixed-variance, and a second unary constructor so
// term ⊆ term pairs can be inconsistent.
func rtConstructors() []*Constructor {
	return []*Constructor{
		NewConstructor("leaf"),
		NewConstructor("box", Covariant),
		NewConstructor("pair", Covariant, Contravariant),
		NewConstructor("tag", Covariant),
	}
}

func newRTEnv(opt Options, nVars int, tspecs []rtTermSpec) *rtEnv {
	e := &rtEnv{sys: NewSystem(opt)}
	for i := 0; i < nVars; i++ {
		e.vars = append(e.vars, e.sys.Fresh(fmt.Sprintf("v%d", i)))
	}
	cons := rtConstructors()
	for _, ts := range tspecs {
		c := cons[ts.con]
		args := make([]Expr, c.Arity())
		for i := range args {
			args[i] = e.vars[ts.args[i]]
		}
		e.terms = append(e.terms, NewTerm(c, args...))
	}
	return e
}

func (e *rtEnv) exprs(c rtConSpec) (Expr, Expr) {
	switch c.kind {
	case 0:
		return e.vars[c.a], e.vars[c.b]
	case 1:
		return e.terms[c.s], e.vars[c.a]
	case 2:
		return e.vars[c.a], e.terms[c.s]
	default:
		return e.terms[c.s], e.terms[c.t]
	}
}

// applyBatch adds one batch through the batch-tracking path and returns
// its retraction handle (0 on non-retractable systems). The storage
// invariants are checked after every constraint.
func (e *rtEnv) applyBatch(specs []rtConSpec) uint64 {
	id := e.sys.BeginBatch()
	for i, c := range specs {
		l, r := e.exprs(c)
		e.sys.AddConstraint(l, r)
		mustHoldInvariants(e.sys, fmt.Sprintf("constraint %d of a batch", i))
	}
	e.sys.EndBatch()
	return id
}

// genTermSpecs draws nTerms term shapes over nVars variables.
func genTermSpecs(rng *rand.Rand, nTerms, nVars int) []rtTermSpec {
	out := make([]rtTermSpec, nTerms)
	for i := range out {
		out[i] = rtTermSpec{
			con:  rng.Intn(4),
			args: [2]int{rng.Intn(nVars), rng.Intn(nVars)},
		}
	}
	return out
}

// genBatches draws batches of constraint specs. Variable-variable edges
// dominate (they drive closure and cycle collapses); term ⊆ term pairs are
// rare and mostly inconsistent, exercising error retraction.
func genBatches(rng *rand.Rand, nBatches, nVars, nTerms int) [][]rtConSpec {
	out := make([][]rtConSpec, nBatches)
	for i := range out {
		n := 1 + rng.Intn(6)
		batch := make([]rtConSpec, n)
		for j := range batch {
			c := rtConSpec{a: rng.Intn(nVars), b: rng.Intn(nVars), s: rng.Intn(nTerms), t: rng.Intn(nTerms)}
			switch r := rng.Intn(10); {
			case r < 5:
				c.kind = 0
			case r < 7:
				c.kind = 1
			case r < 9:
				c.kind = 2
			default:
				c.kind = 3
			}
			batch[j] = c
		}
		out[i] = batch
	}
	return out
}

// rawPartitionSig labels every creation index with the smallest creation
// index of its union-find class — like partitionSig in oracle_test.go but
// without the offline collapse (the comparison is bit-level, not semantic).
func rawPartitionSig(s *System) []int {
	n := s.NumCreated()
	sig := make([]int, n)
	first := make(map[*Var]int, n)
	for i := 0; i < n; i++ {
		root := s.Find(s.CreatedVar(i))
		if j, ok := first[root]; ok {
			sig[i] = j
		} else {
			first[root] = i
			sig[i] = i
		}
	}
	return sig
}

// lsRender materialises every creation index's least solution as term
// strings, order preserved.
func lsRender(s *System) [][]string {
	n := s.NumCreated()
	out := make([][]string, n)
	for i := 0; i < n; i++ {
		for _, t := range s.LeastSolution(s.CreatedVar(i)) {
			out[i] = append(out[i], t.String())
		}
	}
	return out
}

func sigEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lsEqual(a, b [][]string) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return i, false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return i, false
			}
		}
	}
	return 0, true
}

// checkAgainstReference solves the surviving batches from scratch on a
// fresh non-retractable system and compares partition, least solutions and
// error counts against the live run.
func checkAgainstReference(t *testing.T, live *rtEnv, opt Options, nVars int, tspecs []rtTermSpec, surviving [][]rtConSpec, label string) {
	t.Helper()
	refOpt := opt
	refOpt.Retractable = false
	ref := newRTEnv(refOpt, nVars, tspecs)
	for _, b := range surviving {
		ref.applyBatch(b)
	}
	if got, want := rawPartitionSig(live.sys), rawPartitionSig(ref.sys); !sigEqual(got, want) {
		t.Fatalf("%s: partition signature diverged from from-scratch solve\nlive: %v\nref:  %v", label, got, want)
	}
	if i, ok := lsEqual(lsRender(live.sys), lsRender(ref.sys)); !ok {
		t.Fatalf("%s: least solution diverged at creation index %d\nlive: %v\nref:  %v",
			label, i, lsRender(live.sys)[i], lsRender(ref.sys)[i])
	}
	if got, want := live.sys.ErrorCount(), ref.sys.ErrorCount(); got != want {
		t.Fatalf("%s: error count = %d, from-scratch = %d", label, got, want)
	}
}

// retractMatrix is the differential grid: both forms, the online policy
// and no elimination.
func retractMatrix() []Options {
	var out []Options
	for _, form := range []Form{SF, IF} {
		for _, cyc := range []CyclePolicy{CycleOnline, CycleNone} {
			out = append(out, Options{Form: form, Cycles: cyc, Retractable: true})
		}
	}
	return out
}

// retractCaseName names one subtest of the grid. The fixed "hybrid"
// segment is the storage layout (hybrid small sets), kept so subtest ids
// stay stable across commits.
func retractCaseName(opt Options) string {
	return fmt.Sprintf("%s/hybrid/%s/seed%d", opt.Form, opt.Cycles, opt.Seed)
}

// TestRetractInterleavedDifferential is the property gate: random
// add/retract interleavings over ≥5 seeds × the form/policy grid must
// match a from-scratch solve of the survivors bit-identically.
func TestRetractInterleavedDifferential(t *testing.T) {
	const nVars, nTerms, nBatches = 48, 24, 36
	for _, opt := range retractMatrix() {
		for seed := int64(1); seed <= 6; seed++ {
			opt := opt
			opt.Seed = seed
			t.Run(retractCaseName(opt), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed * 7919))
				tspecs := genTermSpecs(rng, nTerms, nVars)
				batches := genBatches(rng, nBatches, nVars, nTerms)
				live := newRTEnv(opt, nVars, tspecs)

				type liveBatch struct {
					id   uint64
					spec []rtConSpec
				}
				var alive []liveBatch
				surviving := func() [][]rtConSpec {
					out := make([][]rtConSpec, len(alive))
					for i, b := range alive {
						out[i] = b.spec
					}
					return out
				}
				for i, b := range batches {
					alive = append(alive, liveBatch{id: live.applyBatch(b), spec: b})
					// Retract a random live batch about a third of the time,
					// occasionally two at once.
					if rng.Intn(3) == 0 && len(alive) > 1 {
						n := 1 + rng.Intn(2)
						var ids []uint64
						for k := 0; k < n && len(alive) > 0; k++ {
							j := rng.Intn(len(alive))
							ids = append(ids, alive[j].id)
							alive = append(alive[:j], alive[j+1:]...)
						}
						if _, err := live.sys.RetractBatches(ids); err != nil {
							t.Fatalf("RetractBatches(%v): %v", ids, err)
						}
						if err := live.sys.CheckInvariants(); err != nil {
							t.Fatalf("after RetractBatches(%v): %v", ids, err)
						}
					}
					if i == nBatches/2 {
						checkAgainstReference(t, live, opt, nVars, tspecs, surviving(), "midpoint")
					}
				}
				checkAgainstReference(t, live, opt, nVars, tspecs, surviving(), "final")
			})
		}
	}
}

// TestRetractThenReaddEquivalence retracts a batch and re-adds the same
// constraints; the result must be semantically identical — full-SCC
// partition after an offline collapse, least solutions as sets, error
// count — to a run that never retracted. (Bit-level equality is not the
// claim here: re-adding at the tail is a different insertion order, and
// partial online elimination is order-sensitive; the offline collapse
// canonicalises the partition.)
func TestRetractThenReaddEquivalence(t *testing.T) {
	const nVars, nTerms, nBatches = 40, 20, 24
	for _, opt := range retractMatrix() {
		for seed := int64(1); seed <= 5; seed++ {
			opt := opt
			opt.Seed = seed
			t.Run(retractCaseName(opt), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed * 104729))
				tspecs := genTermSpecs(rng, nTerms, nVars)
				batches := genBatches(rng, nBatches, nVars, nTerms)

				live := newRTEnv(opt, nVars, tspecs)
				ids := make([]uint64, len(batches))
				for i, b := range batches {
					ids[i] = live.applyBatch(b)
				}
				// Retract a third of the batches, then re-add the same specs.
				var retract []uint64
				var readd [][]rtConSpec
				for i := 0; i < len(batches); i += 3 {
					retract = append(retract, ids[i])
					readd = append(readd, batches[i])
				}
				if _, err := live.sys.RetractBatches(retract); err != nil {
					t.Fatalf("RetractBatches: %v", err)
				}
				for _, b := range readd {
					live.applyBatch(b)
				}

				refOpt := opt
				refOpt.Retractable = false
				ref := newRTEnv(refOpt, nVars, tspecs)
				for _, b := range batches {
					ref.applyBatch(b)
				}

				live.sys.CollapseCycles()
				ref.sys.CollapseCycles()
				if got, want := partitionSig(live.sys), partitionSig(ref.sys); !sigEqual(got, want) {
					t.Fatalf("partition after collapse diverged\nretract+readd: %v\nnever-retracted: %v", got, want)
				}
				lg, lr := lsRender(live.sys), lsRender(ref.sys)
				for i := range lg {
					if !sameStringSet(lg[i], lr[i]) {
						t.Fatalf("least solution (as set) diverged at creation index %d: %v vs %v", i, lg[i], lr[i])
					}
				}
				// Error *counts* are per-discovery-event and so insertion-order
				// sensitive; the order-invariant fact is whether any mismatched
				// source/sink pair meets in the closed graph.
				if got, want := live.sys.ErrorCount() > 0, ref.sys.ErrorCount() > 0; got != want {
					t.Fatalf("inconsistency presence = %v, never-retracted = %v", got, want)
				}
			})
		}
	}
}

func sameStringSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[string]int, len(a))
	for _, s := range a {
		m[s]++
	}
	for _, s := range b {
		m[s]--
		if m[s] < 0 {
			return false
		}
	}
	return true
}

// TestRetractReasonMultiset asserts the ICDGraph multiset semantics: a
// fact justified by two batches survives retracting one and disappears
// only when the last justification goes.
func TestRetractReasonMultiset(t *testing.T) {
	opt := Options{Form: IF, Cycles: CycleOnline, Seed: 3, Retractable: true}
	s := NewSystem(opt)
	x := s.Fresh("x")
	y := s.Fresh("y")
	leaf := NewTerm(NewConstructor("leaf"))

	add := func(cs ...[2]Expr) uint64 {
		id := s.BeginBatch()
		for _, c := range cs {
			s.AddConstraint(c[0], c[1])
		}
		s.EndBatch()
		return id
	}
	b1 := add([2]Expr{leaf, x}, [2]Expr{x, y})
	b2 := add([2]Expr{leaf, x}, [2]Expr{x, y}) // same facts, second justification

	wantLS := func(label string, want int) {
		t.Helper()
		if got := len(s.LeastSolution(y)); got != want {
			t.Fatalf("%s: len(LS(y)) = %d, want %d", label, got, want)
		}
	}
	wantLS("both batches live", 1)

	rep, err := s.RetractBatches([]uint64{b2})
	if err != nil {
		t.Fatalf("retract b2: %v", err)
	}
	if !rep.NoOp {
		t.Errorf("retracting the redundant batch should be a no-op, got %+v", rep)
	}
	wantLS("after retracting second justification", 1)

	if _, err := s.RetractBatches([]uint64{b1}); err != nil {
		t.Fatalf("retract b1: %v", err)
	}
	wantLS("after retracting last justification", 0)
	if got := s.BatchCount(); got != 0 {
		t.Errorf("BatchCount = %d, want 0", got)
	}
}

// TestRetractRecordsRedundantBatchedAttempts pins that a redundant source
// attempt consumed inside a range or fan run is recorded for its batch
// exactly as any other attempt: its variable joins the batch's footprint.
func TestRetractRecordsRedundantBatchedAttempts(t *testing.T) {
	s := NewSystem(Options{Form: SF, Cycles: CycleNone, Seed: 1, Retractable: true})
	x, y, z := s.Fresh("x"), s.Fresh("y"), s.Fresh("z")
	leaf := NewTerm(NewConstructor("leaf"))
	add := func(l, r Expr) *batchRecord {
		id := s.BeginBatch()
		s.AddConstraint(l, r)
		s.EndBatch()
		return s.retract.batches[id]
	}
	add(leaf, x)
	add(leaf, y)
	add(z, x)
	runs := map[string]*batchRecord{
		"range": add(y, x),    // y's sources cross into x as a range
		"fan":   add(leaf, z), // leaf fans out to z's successors
	}
	for name, b := range runs {
		if !slices.Contains(b.touched, x.DenseID()) {
			t.Errorf("%s run: x missing from the batch's footprint %v", name, b.touched)
		}
	}
	if st := s.Stats(); st.Redundant != 2 {
		t.Errorf("Redundant = %d, want 2 (one per run)", st.Redundant)
	}
}

// TestRetractNoOpKeepsVersionAndCache asserts the fast path: retracting a
// batch whose every attempt was redundant leaves the graph version (and so
// every snapshot and least-solution cache) untouched.
func TestRetractNoOpKeepsVersionAndCache(t *testing.T) {
	opt := Options{Form: IF, Cycles: CycleOnline, Seed: 9, Retractable: true}
	s := NewSystem(opt)
	x := s.Fresh("x")
	y := s.Fresh("y")
	leaf := NewTerm(NewConstructor("leaf"))

	s.BeginBatch()
	s.AddConstraint(leaf, x)
	s.AddConstraint(x, y)
	s.EndBatch()

	id2 := s.BeginBatch()
	s.AddConstraint(leaf, x)
	s.EndBatch()
	v0 := s.Version()
	rep, err := s.RetractBatches([]uint64{id2})
	if err != nil {
		t.Fatalf("retract: %v", err)
	}
	if !rep.NoOp || rep.DirtyVars != 0 {
		t.Errorf("report = %+v, want no-op with empty cone", rep)
	}
	if got := s.Version(); got != v0 {
		t.Errorf("version moved %d → %d on a no-op retraction", v0, got)
	}
}

// TestRetractUnknownBatch asserts validation: an unknown id fails with
// ErrUnknownBatch and nothing changes.
func TestRetractUnknownBatch(t *testing.T) {
	opt := Options{Form: SF, Cycles: CycleOnline, Seed: 1, Retractable: true}
	s := NewSystem(opt)
	x := s.Fresh("x")
	y := s.Fresh("y")
	id := s.BeginBatch()
	s.AddConstraint(x, y)
	s.EndBatch()
	v0 := s.Version()
	if _, err := s.RetractBatches([]uint64{id, id + 999}); !errors.Is(err, ErrUnknownBatch) {
		t.Fatalf("err = %v, want ErrUnknownBatch", err)
	}
	if s.Version() != v0 || s.BatchCount() != 1 {
		t.Errorf("failed retraction mutated state: version %d→%d, batches %d", v0, s.Version(), s.BatchCount())
	}
	if _, err := s.RetractBatches(nil); err != nil {
		t.Errorf("empty retraction should succeed, got %v", err)
	}
}

// TestRetractNotRetractable asserts both refusal paths: a system without
// Options.Retractable, and a retractable system tainted by an offline
// collapse outside batch tracking.
func TestRetractNotRetractable(t *testing.T) {
	plain := NewSystem(Options{Form: SF, Cycles: CycleOnline})
	if _, err := plain.RetractBatches([]uint64{1}); !errors.Is(err, ErrNotRetractable) {
		t.Fatalf("non-retractable: err = %v, want ErrNotRetractable", err)
	}

	s := NewSystem(Options{Form: SF, Cycles: CycleNone, Seed: 2, Retractable: true})
	x, y, z := s.Fresh("x"), s.Fresh("y"), s.Fresh("z")
	id := s.BeginBatch()
	s.AddConstraint(x, y)
	s.AddConstraint(y, z)
	s.AddConstraint(z, x)
	s.EndBatch()
	s.CollapseCycles() // collapses the cycle with no batch open → taints
	if _, err := s.RetractBatches([]uint64{id}); !errors.Is(err, ErrNotRetractable) {
		t.Fatalf("tainted: err = %v, want ErrNotRetractable", err)
	}
}

// TestRetractablePeriodicPanics asserts the construction-time guard.
func TestRetractablePeriodicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSystem(Retractable+CyclePeriodic) did not panic")
		}
	}()
	NewSystem(Options{Cycles: CyclePeriodic, Retractable: true})
}

// TestRetractConeLocality builds many disjoint clusters and retracts one
// batch: the dirty cone must stay inside that cluster — measurably smaller
// than the graph — and the retract counters must report it, summing the
// cones over a second retraction.
func TestRetractConeLocality(t *testing.T) {
	const clusters, size = 20, 8
	// The subtest names the storage layout, as retractCaseName's
	// fixed segment does, so test ids stay stable across commits.
	t.Run("hybrid", func(t *testing.T) {
		opt := Options{Form: IF, Cycles: CycleOnline, Seed: 5, Retractable: true}
		s := NewSystem(opt)
		leaf := NewTerm(NewConstructor("leaf"))
		var vars [][]*Var
		for c := 0; c < clusters; c++ {
			var vs []*Var
			for i := 0; i < size; i++ {
				vs = append(vs, s.Fresh(fmt.Sprintf("c%dv%d", c, i)))
			}
			vars = append(vars, vs)
		}
		ids := make([]uint64, clusters)
		for c := 0; c < clusters; c++ {
			ids[c] = s.BeginBatch()
			s.AddConstraint(leaf, vars[c][0])
			for i := 0; i+1 < size; i++ {
				s.AddConstraint(vars[c][i], vars[c][i+1])
			}
			s.EndBatch()
		}
		total := len(s.CanonicalVars())
		rep, err := s.RetractBatches([]uint64{ids[3]})
		if err != nil {
			t.Fatalf("retract: %v", err)
		}
		if rep.DirtyVars == 0 || rep.DirtyVars > size {
			t.Errorf("DirtyVars = %d, want within cluster size %d", rep.DirtyVars, size)
		}
		if rep.DirtyVars*4 > total {
			t.Errorf("dirty cone %d not measurably smaller than graph %d", rep.DirtyVars, total)
		}
		st := s.Stats()
		if st.Retractions != 1 || st.RetractConeVars != int64(rep.DirtyVars) {
			t.Errorf("stats = retracts %d cone %d, want 1/%d", st.Retractions, st.RetractConeVars, rep.DirtyVars)
		}
		rep2, err := s.RetractBatches([]uint64{ids[7]})
		if err != nil {
			t.Fatalf("second retract: %v", err)
		}
		st = s.Stats()
		if want := int64(rep.DirtyVars + rep2.DirtyVars); st.Retractions != 2 || st.RetractConeVars != want {
			t.Errorf("stats after two retractions = retracts %d cone %d, want 2/%d", st.Retractions, st.RetractConeVars, want)
		}
		// The retracted cluster's solutions are gone; neighbours keep theirs.
		if got := len(s.LeastSolution(vars[3][size-1])); got != 0 {
			t.Errorf("retracted cluster still has LS of size %d", got)
		}
		if got := len(s.LeastSolution(vars[4][size-1])); got != 1 {
			t.Errorf("untouched cluster lost its LS (got %d terms)", got)
		}
	})
}

// clusterSystem builds a retractable IF-Online system of disjoint
// 12-variable clusters, one batch each: an atom flows into a chain whose
// tail closes a cycle back into its middle. It returns the system, each
// cluster's variables and atom, and the batch ids.
func clusterSystem(opt Options, clusters int) (*System, [][]*Var, []*Term, []uint64) {
	const size = 12
	s := NewSystem(opt)
	vars := make([][]*Var, clusters)
	atoms := make([]*Term, clusters)
	ids := make([]uint64, clusters)
	for c := range vars {
		for i := 0; i < size; i++ {
			vars[c] = append(vars[c], s.Fresh(fmt.Sprintf("c%dv%d", c, i)))
		}
		atoms[c] = NewTerm(NewConstructor(fmt.Sprintf("a%d", c)))
	}
	for c := range vars {
		ids[c] = addCluster(s, vars[c], atoms[c])
	}
	return s, vars, atoms, ids
}

// addCluster adds one cluster's constraints as a batch.
func addCluster(s *System, vs []*Var, atom *Term) uint64 {
	id := s.BeginBatch()
	s.AddConstraint(atom, vs[0])
	for i := 1; i < len(vs); i++ {
		s.AddConstraint(vs[i-1], vs[i])
	}
	s.AddConstraint(vs[len(vs)-1], vs[len(vs)/2])
	s.EndBatch()
	return id
}

// editCost returns the allocations and bytes of one edit of a
// clusterSystem of the given size: a retract and re-add of cluster 0,
// followed, when read is set, by a LeastSolution of its tail.
func editCost(t *testing.T, clusters int, read bool) (allocs, bytes float64) {
	t.Helper()
	const runs = 50
	opt := Options{Form: IF, Cycles: CycleOnline, Seed: 11, Retractable: true}
	s, vars, atoms, ids := clusterSystem(opt, clusters)
	tail := vars[0][len(vars[0])-1]
	// Empty the least-solution pending list, keeping its capacity, so the
	// edits' appends to it never regrow a graph-sized slice.
	s.ComputeLeastSolutions()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, func() {
		if _, err := s.RetractBatches([]uint64{ids[0]}); err != nil {
			t.Fatal(err)
		}
		ids[0] = addCluster(s, vars[0], atoms[0])
		if read && len(s.LeastSolution(tail)) != 1 {
			t.Fatal("the tail's least solution lost the cluster's atom")
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call before the measured runs.
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
}

// checkEditCostFlat requires an edit to make as many allocations, within
// four, and at most twice the bytes at 4096 clusters as at 64.
func checkEditCostFlat(t *testing.T, what string, read bool) {
	t.Helper()
	smallAllocs, smallBytes := editCost(t, 64, read)
	largeAllocs, largeBytes := editCost(t, 4096, read)
	t.Logf("%s: %.0f allocations, %.0f B at 64 clusters; %.0f, %.0f B at 4096", what, smallAllocs, smallBytes, largeAllocs, largeBytes)
	if diff := largeAllocs - smallAllocs; diff > 4 || diff < -4 {
		t.Errorf("allocations %s: %.0f at 64 clusters, %.0f at 4096", what, smallAllocs, largeAllocs)
	}
	if largeBytes > 2*smallBytes {
		t.Errorf("bytes %s: %.0f at 64 clusters, %.0f at 4096", what, smallBytes, largeBytes)
	}
}

// TestRetractCostIndependentOfGraphSize pins retraction at O(dirty cone):
// one retract and re-add of a 12-variable cluster makes as many
// allocations, and allocates about as many bytes, at 64 clusters as at
// 4096, so no step of it walks or copies every live batch or every
// variable.
func TestRetractCostIndependentOfGraphSize(t *testing.T) {
	checkEditCostFlat(t, "per edit", false)
}

// TestEditAndReadCostIndependentOfGraphSize adds the read that usually
// follows an edit, a LeastSolution of the cluster's tail: the pass may
// walk the graph, but it copies no list the size of the graph.
func TestEditAndReadCostIndependentOfGraphSize(t *testing.T) {
	checkEditCostFlat(t, "per edit and read", true)
}

// TestLSPendingListsEachVarOnce retracts and re-adds one cluster five
// times with no read between the edits. The retraction resets the
// cluster's variables and marks them dirty again; each must stay on the
// pending list once, so the list holds the cluster and does not grow
// by it at every edit.
func TestLSPendingListsEachVarOnce(t *testing.T) {
	s, vars, atoms, ids := clusterSystem(Options{Form: IF, Cycles: CycleOnline, Seed: 11, Retractable: true}, 4)
	s.ComputeLeastSolutions()
	for edit := 1; edit <= 5; edit++ {
		if _, err := s.RetractBatches([]uint64{ids[0]}); err != nil {
			t.Fatal(err)
		}
		ids[0] = addCluster(s, vars[0], atoms[0])
		// Every variable of the cluster is dirty, so any repeat shows.
		if got := s.LSCacheState().PendingDirty; got != len(vars[0]) {
			t.Fatalf("edit %d: PendingDirty = %d, want the cluster's %d variables", edit, got, len(vars[0]))
		}
	}
	checkLSAgainstReference(t, s, "after the edits")
}

// TestSFListsNoPendingVars checks that standard form, which runs no
// least-solution pass to drain the pending list, puts nothing on it: the
// list stays empty after adds and after a retraction, while the graph
// version the snapshot caches key on still moves with each edit.
func TestSFListsNoPendingVars(t *testing.T) {
	s, vars, atoms, ids := clusterSystem(Options{Form: SF, Cycles: CycleOnline, Seed: 11, Retractable: true}, 4)
	check := func(when string, version uint64) {
		t.Helper()
		if st := s.LSCacheState(); st.PendingDirty != 0 || !st.Hot {
			t.Fatalf("%s: LSCacheState = %+v, want hot with nothing pending", when, st)
		}
		if s.Version() <= version {
			t.Fatalf("%s: graph version %d did not move past %d", when, s.Version(), version)
		}
	}
	check("after the adds", 0)
	v := s.Version()
	if _, err := s.RetractBatches([]uint64{ids[0]}); err != nil {
		t.Fatal(err)
	}
	check("after the retraction", v)
	v = s.Version()
	ids[0] = addCluster(s, vars[0], atoms[0])
	check("after the re-add", v)
	checkLSAgainstReference(t, s, "after the edits")
}

// TestRetractRelistsCompactedVars covers a retraction that un-forwards
// collapsed variables: three quarters of the variables die in collapses,
// a CanonicalVars walk skips them, and the retraction must count the
// variables it un-forwards as live again — listed in creation order,
// counted in TotalVars and GraphStats.Vars — and still match a
// from-scratch solve. GraphStats.Vars reads the store's live count
// without listing the variables.
func TestRetractRelistsCompactedVars(t *testing.T) {
	const clusters, size = 8, 4
	nVars := clusters * size
	tspecs := []rtTermSpec{{con: 0}}
	var batches [][]rtConSpec
	for c := 0; c < clusters; c++ {
		b := []rtConSpec{{kind: 1, a: c * size, s: 0}}
		for i := 1; i < size; i++ {
			b = append(b, rtConSpec{a: c*size + i - 1, b: c*size + i}, rtConSpec{a: c*size + i, b: c*size + i - 1})
		}
		batches = append(batches, b)
	}
	// liveCount counts the canonical variables one handle at a time,
	// without the store's counter.
	liveCount := func(s *System) int {
		n := 0
		for i := 0; i < s.NumCreated(); i++ {
			if !s.CreatedVar(i).Forwarded() {
				n++
			}
		}
		return n
	}
	// The subtest names the storage layout, as retractCaseName's
	// fixed segment does, so test ids stay stable across commits.
	t.Run("hybrid", func(t *testing.T) {
		opt := Options{Form: IF, Cycles: CycleOnline, Seed: 4, Retractable: true}
		live := newRTEnv(opt, nVars, tspecs)
		ids := make([]uint64, clusters)
		for c, b := range batches {
			ids[c] = live.applyBatch(b)
		}
		if got := liveCount(live.sys); got != clusters {
			t.Fatalf("%d canonical variables after the cycles collapsed, want %d", got, clusters)
		}
		live.sys.CanonicalVars() // skips the collapsed variables
		if got := live.sys.CurrentGraphStats().Vars; got != clusters {
			t.Fatalf("GraphStats.Vars = %d after the collapses, want %d", got, clusters)
		}
		if allocs := testing.AllocsPerRun(10, func() { live.sys.CurrentGraphStats() }); allocs != 0 {
			t.Fatalf("CurrentGraphStats makes %.0f allocations, want none", allocs)
		}

		if _, err := live.sys.RetractBatches([]uint64{ids[2]}); err != nil {
			t.Fatal(err)
		}
		want := liveCount(live.sys)
		if want != clusters+size-1 {
			t.Fatalf("%d canonical variables after the retraction, want %d", want, clusters+size-1)
		}
		// The next retraction reads the live count the first one raised.
		rep, err := live.sys.RetractBatches([]uint64{ids[5]})
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalVars != want {
			t.Fatalf("TotalVars = %d, want %d", rep.TotalVars, want)
		}
		if got, want := live.sys.CurrentGraphStats().Vars, liveCount(live.sys); got != want {
			t.Fatalf("GraphStats.Vars = %d after re-listing, want %d", got, want)
		}
		vs := live.sys.CanonicalVars()
		if len(vs) != liveCount(live.sys) {
			t.Fatalf("CanonicalVars lists %d variables, want %d", len(vs), liveCount(live.sys))
		}
		for i := 1; i < len(vs); i++ {
			if vs[i-1].ID() >= vs[i].ID() {
				t.Fatalf("CanonicalVars out of creation order at %d: %v", i, vs)
			}
		}
		var surviving [][]rtConSpec
		for c, b := range batches {
			if c != 2 && c != 5 {
				surviving = append(surviving, b)
			}
		}
		checkAgainstReference(t, live, opt, nVars, tspecs, surviving, "after re-listing")
	})
}
