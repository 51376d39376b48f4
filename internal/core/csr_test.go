package core

import (
	"fmt"
	"testing"
)

// This file is the differential gate on the flat-memory core: the CSR
// (arena) representation must be observationally *bit-identical* to the
// hybrid representation — not merely equivalent. Same partition
// signature, same least solutions in the same first-reached order, same
// Stats counters, same edge counts, same graph version. Both layouts run
// the one drain loop (range and fan entries, see the constraint type in
// system.go), so any divergence here is a storage bug, not a tolerance.
// The drain order itself is pinned across commits by
// TestDrainOrderMatchesGolden.

// lsSeq returns LS(v) term strings in first-reached order (no sorting:
// order is part of the bit-identity contract).
func lsSeq(s *System, v *Var) []string {
	ts := s.LeastSolution(v)
	names := make([]string, 0, len(ts))
	for _, t := range ts {
		names = append(names, t.String())
	}
	return names
}

// reprPartitionSig returns, for every creation index, the creation index
// of its canonical representative — the exact collapse partition of the
// run as it stands (unlike partitionSig in oracle_test.go, it does not
// collapse remaining components first: the bit-identity contract is on
// the online collapse history itself).
func reprPartitionSig(s *System) []int {
	sig := make([]int, s.NumCreated())
	for i := range sig {
		sig[i] = s.Find(s.CreatedVar(i)).ID()
	}
	return sig
}

// diffConfigs is the grid the differential suite drives: both forms, the
// cycle policies that exercise collapse (plus none), and every order
// strategy.
type diffConfig struct {
	form  Form
	pol   CyclePolicy
	order OrderStrategy
}

func diffConfigs() []diffConfig {
	var out []diffConfig
	for _, form := range []Form{SF, IF} {
		for _, pol := range []CyclePolicy{CycleNone, CycleOnline, CycleOnlineIncreasing, CyclePeriodic} {
			for _, ord := range []OrderStrategy{OrderRandom, OrderCreation, OrderReverseCreation} {
				out = append(out, diffConfig{form, pol, ord})
			}
		}
	}
	return out
}

// assertBitIdentical runs one script under both representations and
// asserts the full observational equality contract.
func assertBitIdentical(t *testing.T, opt Options, ops []scriptOp, label string) {
	t.Helper()
	optH, optC := opt, opt
	optH.Repr = ReprHybrid
	optC.Repr = ReprCSR
	h, hv := runScript(optH, ops)
	c, cv := runScript(optC, ops)

	if hs, cs := h.Stats(), c.Stats(); hs != cs {
		t.Fatalf("%s: Stats diverge\nhybrid: %v\ncsr:    %v", label, hs, cs)
	}
	if hp, cp := fmt.Sprint(reprPartitionSig(h)), fmt.Sprint(reprPartitionSig(c)); hp != cp {
		t.Fatalf("%s: partition signatures diverge\nhybrid: %s\ncsr:    %s", label, hp, cp)
	}
	ha, hb, hc := h.EdgeCounts()
	ca, cb, cc := c.EdgeCounts()
	if ha != ca || hb != cb || hc != cc {
		t.Fatalf("%s: edge counts diverge: hybrid (%d,%d,%d) csr (%d,%d,%d)", label, ha, hb, hc, ca, cb, cc)
	}
	if h.Version() != c.Version() {
		t.Fatalf("%s: graph versions diverge: %d vs %d", label, h.Version(), c.Version())
	}
	for i := range hv {
		hls, cls := fmt.Sprint(lsSeq(h, hv[i])), fmt.Sprint(lsSeq(c, cv[i]))
		if hls != cls {
			t.Fatalf("%s: LS(v%d) diverges\nhybrid: %s\ncsr:    %s", label, i, hls, cls)
		}
	}
	if got := c.StorageStats().Repr; got != "csr" {
		t.Fatalf("%s: csr run reports repr %q", label, got)
	}
	if got := h.StorageStats().Repr; got != "hybrid" {
		t.Fatalf("%s: hybrid run reports repr %q", label, got)
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
// from a hybrid reference run, then replayed under both representations.
func TestCSRBitIdenticalOracle(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		ops := genScript(seed, 40, 160)
		ref, _ := runScript(Options{Form: IF, Cycles: CycleOnline, Seed: seed}, ops)
		oracle := BuildOracle(ref)
		opt := Options{Form: IF, Cycles: CycleOracle, Oracle: oracle, Seed: seed}
		assertBitIdentical(t, opt, ops, fmt.Sprintf("seed=%d oracle", seed))
	}
}

// TestCSRBitIdenticalOffline covers the offline Tarjan pass (whose absorb
// path also runs through range entries) and the initial-graph mode.
func TestCSRBitIdenticalOffline(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		ops := genScript(seed, 50, 200)
		for _, form := range []Form{SF, IF} {
			optH := Options{Form: form, Cycles: CycleNone, Seed: seed, Repr: ReprHybrid}
			optC := optH
			optC.Repr = ReprCSR
			h, hv := runScript(optH, ops)
			c, cv := runScript(optC, ops)
			if hn, cn := h.CollapseCycles(), c.CollapseCycles(); hn != cn {
				t.Fatalf("seed=%d %v: offline collapse counts diverge: %d vs %d", seed, form, hn, cn)
			}
			if hs, cs := h.Stats(), c.Stats(); hs != cs {
				t.Fatalf("seed=%d %v: Stats diverge after CollapseCycles\nhybrid: %v\ncsr:    %v", seed, form, hs, cs)
			}
			if hp, cp := fmt.Sprint(reprPartitionSig(h)), fmt.Sprint(reprPartitionSig(c)); hp != cp {
				t.Fatalf("seed=%d %v: partitions diverge after CollapseCycles", seed, form)
			}
			for i := range hv {
				if a, b := fmt.Sprint(lsSeq(h, hv[i])), fmt.Sprint(lsSeq(c, cv[i])); a != b {
					t.Fatalf("seed=%d %v: LS(v%d) diverges after CollapseCycles", seed, form, i)
				}
			}
		}
	}
}

// TestCSRCompactionPreservesGraph forces arena compactions mid-run and
// checks the graph is unchanged: compaction moves storage, never content.
func TestCSRCompactionPreservesGraph(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		ops := genScript(seed, 40, 160)
		opt := Options{Form: IF, Cycles: CycleOnline, Seed: seed, Repr: ReprCSR}
		s := NewSystem(opt)
		var vars []*Var
		for i, op := range ops {
			if op.fresh {
				vars = append(vars, s.Fresh(fmt.Sprintf("v%d", len(vars))))
				continue
			}
			s.AddConstraint(op.l.build(vars), op.r.build(vars))
			if i%23 == 0 {
				a, b, c := s.EdgeCounts()
				ls := fmt.Sprint(lsSeq(s, vars[i%len(vars)]))
				epochBefore := s.store.ArenaStats().Epoch
				s.store.CompactArenas()
				if got := s.store.ArenaStats().Epoch; got != epochBefore+1 {
					t.Fatalf("seed=%d: compaction did not bump epoch (%d -> %d)", seed, epochBefore, got)
				}
				a2, b2, c2 := s.EdgeCounts()
				if a != a2 || b != b2 || c != c2 {
					t.Fatalf("seed=%d: compaction changed edge counts (%d,%d,%d) -> (%d,%d,%d)", seed, a, b, c, a2, b2, c2)
				}
				if ls2 := fmt.Sprint(lsSeq(s, vars[i%len(vars)])); ls != ls2 {
					t.Fatalf("seed=%d: compaction changed LS: %s -> %s", seed, ls, ls2)
				}
			}
		}
	}
}

// TestCSRStorageStats sanity-checks the storage counters: the drain
// shape (range entries, widest window, worklist high-water mark) is the
// same on both layouts, and only the CSR run has arena state.
func TestCSRStorageStats(t *testing.T) {
	ops := genScript(3, 50, 200)
	h, _ := runScript(Options{Form: IF, Cycles: CycleOnline, Seed: 3, Repr: ReprHybrid}, ops)
	c, _ := runScript(Options{Form: IF, Cycles: CycleOnline, Seed: 3, Repr: ReprCSR}, ops)
	hs, cs := h.StorageStats(), c.StorageStats()
	if hs.DeltaRanges == 0 || hs.WorklistHWM == 0 {
		t.Fatalf("drain shape untracked: %+v", hs)
	}
	if hs.DeltaRanges != cs.DeltaRanges || hs.DeltaMaxSpan != cs.DeltaMaxSpan || hs.WorklistHWM != cs.WorklistHWM {
		t.Fatalf("drain shape diverges across layouts\nhybrid: %+v\ncsr:    %+v", hs, cs)
	}
	if cs.Arena.HandedOut == 0 || cs.Arena.Chunks == 0 {
		t.Fatalf("csr run allocated nothing from the arena: %+v", cs.Arena)
	}
	if hs.Arena != (ArenaStats{}) {
		t.Fatalf("hybrid run has arena state: %+v", hs.Arena)
	}
}
