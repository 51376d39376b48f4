package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"polce/internal/core/graph"
)

// This file is the differential gate on the storage layer's lazy
// compaction. Collapses leave stale aliases in adjacency sets; whole-graph
// walks compact them away (Clean's adjacency canonicalisation, which also
// releases a set that compacts to nothing). When that happens must be
// invisible: a run that
// forces compaction after every constraint must be observationally
// *bit-identical* to one that leaves it lazy — same Stats counters, same
// collapse partition, same edge counts, same graph version, same least
// solutions in first-reached order. The TestCSR names are kept from when
// these tests compared the arena (CSR) layout against hybrid, so test ids
// stay stable across commits.

// runScriptCompacting is runScript with compaction forced after every
// constraint: EdgeCounts canonicalises every live variable's adjacency.
func runScriptCompacting(opt Options, ops []scriptOp) (*System, []*Var) {
	s := NewSystem(opt)
	var vars []*Var
	for _, op := range ops {
		if op.fresh {
			vars = append(vars, s.Fresh(fmt.Sprintf("v%d", len(vars))))
			continue
		}
		s.AddConstraint(op.l.build(vars), op.r.build(vars))
		s.EdgeCounts()
	}
	return s, vars
}

// assertBitIdentical runs one script lazily and with forced compaction
// and asserts the full observational equality contract.
func assertBitIdentical(t *testing.T, opt Options, ops []scriptOp, label string) {
	t.Helper()
	l, lv := runScript(opt, ops)
	c, cv := runScriptCompacting(opt, ops)
	assertSameRun(t, l, lv, c, cv, label)
}

// assertSameRun asserts that the lazy run l and the compacting run c are
// observationally equal.
func assertSameRun(t *testing.T, l *System, lv []*Var, c *System, cv []*Var, label string) {
	t.Helper()
	if ls, cs := l.Stats(), c.Stats(); ls != cs {
		t.Fatalf("%s: Stats diverge\nlazy:      %v\ncompacted: %v", label, ls, cs)
	}
	if lp, cp := fmt.Sprint(reprPartitionSig(l)), fmt.Sprint(reprPartitionSig(c)); lp != cp {
		t.Fatalf("%s: partition signatures diverge\nlazy:      %s\ncompacted: %s", label, lp, cp)
	}
	la, lb, lc := l.EdgeCounts()
	ca, cb, cc := c.EdgeCounts()
	if la != ca || lb != cb || lc != cc {
		t.Fatalf("%s: edge counts diverge: lazy (%d,%d,%d) compacted (%d,%d,%d)", label, la, lb, lc, ca, cb, cc)
	}
	if l.Version() != c.Version() {
		t.Fatalf("%s: graph versions diverge: %d vs %d", label, l.Version(), c.Version())
	}
	for i := range lv {
		lls, cls := fmt.Sprint(lsSeq(l, lv[i])), fmt.Sprint(lsSeq(c, cv[i]))
		if lls != cls {
			t.Fatalf("%s: LS(v%d) diverges\nlazy:      %s\ncompacted: %s", label, i, lls, cls)
		}
	}
}

// TestCSRBitIdenticalAcrossConfigs is the differential property suite:
// seeds × forms × cycle policies × order strategies.
func TestCSRBitIdenticalAcrossConfigs(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		ops := genScript(seed, 50, 200)
		for _, cfg := range diffConfigs() {
			opt := Options{Form: cfg.form, Cycles: cfg.pol, Order: cfg.order, Seed: seed}
			assertBitIdentical(t, opt, ops,
				fmt.Sprintf("seed=%d %v/%v/%v", seed, cfg.form, cfg.pol, cfg.order))
		}
	}
}

// TestCSRBitIdenticalOracle covers the oracle policy: the oracle is built
// from a lazy reference run, then replayed lazily and compacting.
func TestCSRBitIdenticalOracle(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		ops := genScript(seed, 40, 160)
		ref, _ := runScript(Options{Form: IF, Cycles: CycleOnline, Seed: seed}, ops)
		opt := Options{Form: IF, Cycles: CycleOracle, Oracle: BuildOracle(ref), Seed: seed}
		assertBitIdentical(t, opt, ops, fmt.Sprintf("seed=%d oracle", seed))
	}
}

// TestCSRBitIdenticalOffline covers the offline Tarjan pass (whose absorb
// path also runs through range entries) and the initial-graph mode.
func TestCSRBitIdenticalOffline(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		ops := genScript(seed, 50, 200)
		for _, form := range []Form{SF, IF} {
			opt := Options{Form: form, Cycles: CycleNone, Seed: seed}
			l, lv := runScript(opt, ops)
			c, cv := runScriptCompacting(opt, ops)
			if ln, cn := l.CollapseCycles(), c.CollapseCycles(); ln != cn {
				t.Fatalf("seed=%d %v: offline collapse counts diverge: %d vs %d", seed, form, ln, cn)
			}
			assertSameRun(t, l, lv, c, cv, fmt.Sprintf("seed=%d %v after CollapseCycles", seed, form))
		}
	}
}

// TestCSRCompactionPreservesGraph forces compaction mid-run and checks
// the graph is unchanged: compaction drops stale adjacency entries, never
// content.
func TestCSRCompactionPreservesGraph(t *testing.T) {
	stale := 0
	for seed := int64(0); seed < 4; seed++ {
		ops := genScript(seed, 40, 160)
		s := NewSystem(Options{Form: IF, Cycles: CycleOnline, Seed: seed})
		var vars []*Var
		for i, op := range ops {
			if op.fresh {
				vars = append(vars, s.Fresh(fmt.Sprintf("v%d", len(vars))))
				continue
			}
			s.AddConstraint(op.l.build(vars), op.r.build(vars))
			if i%23 != 0 {
				continue
			}
			before, n := canonicalGraph(s)
			stale += n
			s.EdgeCounts() // compacts every adjacency set
			after, left := canonicalGraph(s)
			if left != 0 {
				t.Fatalf("seed=%d op %d: %d stale entries survived compaction", seed, i, left)
			}
			if before != after {
				t.Fatalf("seed=%d op %d: compaction changed the graph\nbefore:\n%s\nafter:\n%s", seed, i, before, after)
			}
			if got, want := len(s.CanonicalVars()), s.store.NumLive(); got != want {
				t.Fatalf("seed=%d op %d: CanonicalVars lists %d variables, NumLive says %d", seed, i, got, want)
			}
		}
	}
	if stale == 0 {
		t.Fatal("no checkpoint had a stale entry to compact; workload too small")
	}
}

// canonicalGraph renders the graph as it stands without compacting
// anything: every live variable's adjacency resolved through Find,
// deduplicated and sorted. It also counts the stale entries compaction
// would drop or rewrite: aliases of eliminated variables, duplicates and
// self-edges.
func canonicalGraph(s *System) (string, int) {
	var b strings.Builder
	stale := 0
	canon := func(self *Var, list []*Var) []int {
		var ids []int
		for _, w := range list {
			c := find(w)
			if c != w || c == self || slices.Contains(ids, c.ID()) {
				stale++
			}
			if c != self && !slices.Contains(ids, c.ID()) {
				ids = append(ids, c.ID())
			}
		}
		slices.Sort(ids)
		return ids
	}
	for i := 0; i < s.NumCreated(); i++ {
		v := s.CreatedVar(i)
		if v.Forwarded() {
			continue
		}
		id := v.DenseID()
		src, snk := slices.Clone(s.store.TermIDs(id, graph.PredS)), slices.Clone(s.store.TermIDs(id, graph.SuccK))
		slices.Sort(src)
		slices.Sort(snk)
		fmt.Fprintf(&b, "v%d pred %v succ %v src %v snk %v\n",
			v.ID(), canon(v, varsOf(s, v, graph.PredV)), canon(v, varsOf(s, v, graph.SuccV)), src, snk)
	}
	return b.String(), stale
}

// TestCSRStorageStats sanity-checks the drain-shape counters: a run that
// pushes term sets across edges records range entries and a worklist
// high-water mark, and forcing compaction leaves the drain shape as it
// was.
func TestCSRStorageStats(t *testing.T) {
	ops := genScript(3, 50, 200)
	opt := Options{Form: IF, Cycles: CycleOnline, Seed: 3}
	l, _ := runScript(opt, ops)
	c, _ := runScriptCompacting(opt, ops)
	ls, cs := l.StorageStats(), c.StorageStats()
	if ls.DeltaRanges == 0 || ls.WorklistHWM == 0 {
		t.Fatalf("drain shape untracked: %+v", ls)
	}
	if ls != cs {
		t.Fatalf("drain shape diverges under forced compaction\nlazy:      %+v\ncompacted: %+v", ls, cs)
	}
}
