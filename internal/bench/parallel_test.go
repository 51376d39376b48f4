package bench

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"polce"
)

// smallGrid is a grid small enough for tests but wide enough to exercise
// form × policy × order fan-out, including a per-cell oracle build.
func smallGrid(t *testing.T) []Cell {
	t.Helper()
	benches := []Benchmark{Suite[0], Suite[1]} // allroots, diff.diffh
	exps := []Experiment{
		Experiments[4], // SF-Online
		Experiments[5], // IF-Online
		Experiments[3], // IF-Oracle: exercises the cell-local reference pass
	}
	orders := []polce.OrderStrategy{polce.OrderRandom, polce.OrderCreation}
	cells := Grid(benches, exps, orders, []int64{1})
	for i := range cells {
		cells[i].Seed = CellSeed(1, cells[i])
	}
	return cells
}

// TestGridDeterministic pins the expansion order and the derived seeds:
// two independent expansions must agree cell for cell.
func TestGridDeterministic(t *testing.T) {
	a, b := smallGrid(t), smallGrid(t)
	if len(a) != len(b) || len(a) != 2*3*2 {
		t.Fatalf("grid sizes %d, %d; want %d", len(a), len(b), 2*3*2)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d differs across expansions: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Distinct coordinates must draw distinct derived seeds.
	seen := map[int64]Cell{}
	for i, c := range a {
		if prev, dup := seen[c.Seed]; dup {
			t.Errorf("cell %d shares derived seed %d with cell %+v", i, c.Seed, prev)
		}
		seen[c.Seed] = c
	}
}

// TestRunParallelOrderStableAndDeterministic runs the same grid on one
// worker and on four and checks (a) results come back in input order, and
// (b) every deterministic counter agrees across worker counts — the
// parallel runner must not perturb what it measures.
func TestRunParallelOrderStableAndDeterministic(t *testing.T) {
	cells := smallGrid(t)
	seq := RunParallel(cells, ParallelOptions{Workers: 1, Phases: true})
	par := RunParallel(cells, ParallelOptions{Workers: 4, Phases: true})
	if len(seq) != len(cells) || len(par) != len(cells) {
		t.Fatalf("result lengths %d, %d; want %d", len(seq), len(par), len(cells))
	}
	for i := range cells {
		if par[i].Cell != cells[i] {
			t.Fatalf("result %d holds cell %+v, want input cell %+v (order not stable)", i, par[i].Cell, cells[i])
		}
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("cell %d errored: seq=%v par=%v", i, seq[i].Err, par[i].Err)
		}
		s, p := seq[i].Run, par[i].Run
		if s.Edges != p.Edges || s.Work != p.Work || s.Eliminated != p.Eliminated ||
			s.Searches != p.Searches || s.Visits != p.Visits {
			t.Errorf("cell %d (%s/%s/%s): counters differ across worker counts:\n seq %+v\n par %+v",
				i, cells[i].Bench.Name, cells[i].Exp.Name, cells[i].Order, s, p)
		}
		if s.DepthP50 != p.DepthP50 || s.DepthMax != p.DepthMax {
			t.Errorf("cell %d: depth quantiles differ: seq p50=%v max=%v, par p50=%v max=%v",
				i, s.DepthP50, s.DepthMax, p.DepthP50, p.DepthMax)
		}
	}
	// The oracle cells must actually have eliminated variables (their
	// cell-local reference pass found the cycles for them).
	sawOracle := false
	for i, c := range cells {
		if c.Exp.Cycles == polce.CycleOracle {
			sawOracle = true
			if par[i].Run.Eliminated == 0 {
				t.Errorf("oracle cell %d eliminated nothing; per-cell oracle not built?", i)
			}
		}
	}
	if !sawOracle {
		t.Fatal("grid contained no oracle cell")
	}
}

// TestBaselineRoundTrip checks the committed-baseline JSON writer: every
// successful cell appears, in order, with the phase timings filled in and
// the schema marker present.
func TestBaselineRoundTrip(t *testing.T) {
	cells := smallGrid(t)[:4]
	results := RunParallel(cells, ParallelOptions{Workers: 2, Phases: true})
	b := NewBaseline(results, ParallelOptions{Workers: 2}, time.Unix(1700000000, 0))
	var buf bytes.Buffer
	if err := WriteBaseline(&buf, b); err != nil {
		t.Fatal(err)
	}
	var back Baseline
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("baseline does not round-trip: %v", err)
	}
	if back.Schema != "polce-bench-baseline/4" {
		t.Errorf("schema = %q", back.Schema)
	}
	if len(back.Cells) != len(cells) {
		t.Fatalf("baseline has %d cells, want %d", len(back.Cells), len(cells))
	}
	for i, bc := range back.Cells {
		if bc.Benchmark != cells[i].Bench.Name || bc.Experiment != cells[i].Exp.Name {
			t.Errorf("baseline cell %d is %s/%s, want %s/%s", i, bc.Benchmark, bc.Experiment, cells[i].Bench.Name, cells[i].Exp.Name)
		}
		if bc.TotalNS <= 0 || bc.SolveNS <= 0 {
			t.Errorf("baseline cell %d has empty timings: %+v", i, bc)
		}
		if bc.Edges == 0 || bc.Work == 0 {
			t.Errorf("baseline cell %d has empty counters: %+v", i, bc)
		}
	}
}
