package bench

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"polce"
)

var updateCounters = flag.Bool("update", false, "rewrite testdata/counters.json with the current deterministic counters")

// goldenCounters is one grid cell's deterministic fields: the behaviour
// contract that a change to storage, propagation or the least-solution
// engine must leave untouched unless it says why.
type goldenCounters struct {
	Benchmark  string `json:"benchmark"`
	Experiment string `json:"experiment"`
	Seed       int64  `json:"seed"`

	Edges          int     `json:"edges"`
	Work           int64   `json:"work"`
	Redundant      int64   `json:"redundant"`
	Eliminated     int     `json:"eliminated"`
	Searches       int64   `json:"searches"`
	Visits         int64   `json:"visits"`
	DepthP50       float64 `json:"depth_p50"`
	DepthP90       float64 `json:"depth_p90"`
	DepthMax       float64 `json:"depth_max"`
	LSLevels       int64   `json:"ls_levels"`
	LSUnionHitRate float64 `json:"ls_union_hit_rate"`
}

// TestCountersMatchGolden solves every suite program up to 17,000 AST
// nodes under SF-Online and IF-Online, one cell after another, and
// compares each cell's deterministic fields with testdata/counters.json.
// Unlike the determinism tests, which compare two runs of one binary,
// the golden pins the counters across commits.
//
// Regenerate with: go test ./internal/bench -run TestCountersMatchGolden -update
func TestCountersMatchGolden(t *testing.T) {
	var exps []Experiment
	for _, name := range []string{"SF-Online", "IF-Online"} {
		e, _ := ExperimentByName(name)
		exps = append(exps, e)
	}
	cells := Grid(SuiteUpTo(17000), exps, []polce.OrderStrategy{polce.OrderRandom}, []int64{1})
	got := make([]goldenCounters, len(cells))
	for i, c := range cells {
		c.Seed = CellSeed(1, c)
		p, err := load(c.Bench)
		if err != nil {
			t.Fatalf("cell %d (%s/%s): %v", i, c.Bench.Name, c.Exp.Name, err)
		}
		r := runOne(p, c.Exp, nil, Options{Seed: c.Seed, Order: c.Order, Phases: true}, 1)
		got[i] = goldenCounters{
			Benchmark:      c.Bench.Name,
			Experiment:     c.Exp.Name,
			Seed:           c.Seed,
			Edges:          r.Edges,
			Work:           r.Work,
			Redundant:      r.Redundant,
			Eliminated:     r.Eliminated,
			Searches:       r.Searches,
			Visits:         r.Visits,
			DepthP50:       r.DepthP50,
			DepthP90:       r.DepthP90,
			DepthMax:       r.DepthMax,
			LSLevels:       r.LSLevels,
			LSUnionHitRate: r.LSUnionHitRate,
		}
	}

	path := filepath.Join("testdata", "counters.json")
	if *updateCounters {
		data, err := json.MarshalIndent(got, "", "  ")
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
	var want []goldenCounters
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cells, run has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("cell %d differs from golden:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}
