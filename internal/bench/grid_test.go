package bench

import (
	"testing"

	"polce"
)

// smallGrid is a grid small enough for tests but wide enough to exercise
// form × policy × order fan-out.
func smallGrid(t *testing.T) []Cell {
	t.Helper()
	benches := []Benchmark{Suite[0], Suite[1]} // allroots, diff.diffh
	exps := []Experiment{
		Experiments[4], // SF-Online
		Experiments[5], // IF-Online
		Experiments[3], // IF-Oracle
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
