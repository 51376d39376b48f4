package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

var updateDrainOrder = flag.Bool("update", false, "rewrite testdata/drain_order.json with the current run fingerprints")

// lsSeq returns LS(v) term strings in first-reached order (no sorting:
// the order is part of what the fingerprint pins).
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
// collapse remaining components first: the fingerprint pins the online
// collapse history itself).
func reprPartitionSig(s *System) []int {
	sig := make([]int, s.NumCreated())
	for i := range sig {
		sig[i] = s.Find(s.CreatedVar(i)).ID()
	}
	return sig
}

// diffConfigs is the grid the drain-order golden drives: both forms, the
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

// runFingerprint hashes everything the drain order can move: the Stats
// counters, the exact collapse partition, the edge counts, the graph
// version and every least solution in first-reached order. Two runs with
// equal fingerprints drained their worklists into the same graph through
// the same collapse history.
func runFingerprint(s *System, vars []*Var) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "stats %v\n", s.Stats())
	fmt.Fprintf(h, "partition %v\n", reprPartitionSig(s))
	a, b, c := s.EdgeCounts()
	fmt.Fprintf(h, "edges %d %d %d\n", a, b, c)
	fmt.Fprintf(h, "version %d\n", s.Version())
	for i, v := range vars {
		fmt.Fprintf(h, "ls %d %v\n", i, lsSeq(s, v))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// drainOrderRuns solves every case of the drain-order golden and returns
// each case's fingerprint by label: the configuration grid (seeds ×
// diffConfigs), the oracle policy, and the offline CollapseCycles pass.
func drainOrderRuns() map[string]string {
	out := make(map[string]string)
	for seed := int64(0); seed < 5; seed++ {
		ops := genScript(seed, 50, 200)
		for _, cfg := range diffConfigs() {
			opt := Options{Form: cfg.form, Cycles: cfg.pol, Order: cfg.order, Seed: seed}
			s, vars := runScript(opt, ops)
			out[fmt.Sprintf("seed=%d %v/%v/%v", seed, cfg.form, cfg.pol, cfg.order)] = runFingerprint(s, vars)
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		ops := genScript(seed, 40, 160)
		ref, _ := runScript(Options{Form: IF, Cycles: CycleOnline, Seed: seed}, ops)
		opt := Options{Form: IF, Cycles: CycleOracle, Oracle: BuildOracle(ref), Seed: seed}
		s, vars := runScript(opt, ops)
		out[fmt.Sprintf("seed=%d oracle", seed)] = runFingerprint(s, vars)
	}
	for seed := int64(0); seed < 4; seed++ {
		ops := genScript(seed, 50, 200)
		for _, form := range []Form{SF, IF} {
			s, vars := runScript(Options{Form: form, Cycles: CycleNone, Seed: seed}, ops)
			n := s.CollapseCycles()
			out[fmt.Sprintf("seed=%d %v offline collapsed=%d", seed, form, n)] = runFingerprint(s, vars)
		}
	}
	return out
}

// TestDrainOrderMatchesGolden pins the worklist drain order across
// commits: every case's fingerprint must equal the one in
// testdata/drain_order.json. The counter golden in
// internal/bench covers only SF and IF Online on the suite programs; this
// golden is the cross-commit gate for the other cycle policies (periodic
// sweeps and the increasing-order ablation are the most order-sensitive)
// and for the offline collapse path.
//
// Regenerate with: go test ./internal/core -run TestDrainOrderMatchesGolden -update
func TestDrainOrderMatchesGolden(t *testing.T) {
	path := filepath.Join("testdata", "drain_order.json")
	if *updateDrainOrder {
		data, err := json.MarshalIndent(drainOrderRuns(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := drainOrderRuns()
	if len(got) != len(want) {
		t.Fatalf("golden has %d runs, this run has %d", len(want), len(got))
	}
	for label, fp := range got {
		if w, ok := want[label]; !ok {
			t.Errorf("run %q missing from golden", label)
		} else if fp != w {
			t.Errorf("run %q fingerprint %s, golden %s", label, fp, w)
		}
	}
}
