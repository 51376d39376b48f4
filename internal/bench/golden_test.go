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

// TestCountersMatchGolden solves every suite program up to 9000 AST nodes
// under SF-Online and IF-Online and compares each cell's deterministic
// fields with testdata/counters.json.
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
	cells := Grid(SuiteUpTo(9000), exps, []polce.OrderStrategy{polce.OrderRandom}, []int64{1})
	for i := range cells {
		cells[i].Seed = CellSeed(1, cells[i])
	}
	results := RunParallel(cells, ParallelOptions{Phases: true})
	got := make([]goldenCounters, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %d (%s/%s): %v", i, r.Cell.Bench.Name, r.Cell.Exp.Name, r.Err)
		}
		got[i] = goldenCounters{
			Benchmark:      r.Cell.Bench.Name,
			Experiment:     r.Cell.Exp.Name,
			Seed:           r.Cell.Seed,
			Edges:          r.Run.Edges,
			Work:           r.Run.Work,
			Redundant:      r.Run.Redundant,
			Eliminated:     r.Run.Eliminated,
			Searches:       r.Run.Searches,
			Visits:         r.Run.Visits,
			DepthP50:       r.Run.DepthP50,
			DepthP90:       r.Run.DepthP90,
			DepthMax:       r.Run.DepthMax,
			LSLevels:       r.Run.LSLevels,
			LSUnionHitRate: r.Run.LSUnionHitRate,
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
