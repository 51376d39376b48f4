package bench

import "polce"

// Cell is one point of the experiment grid: a benchmark solved under one
// experiment configuration, order strategy and seed.
type Cell struct {
	Bench Benchmark
	Exp   Experiment
	Order polce.OrderStrategy
	Seed  int64
}

// Grid expands the cross product benches × exps × orders × seeds into
// cells, in that nesting order (seed varies fastest). The expansion is
// deterministic, so two processes given the same inputs enumerate the
// same cells at the same indices.
func Grid(benches []Benchmark, exps []Experiment, orders []polce.OrderStrategy, seeds []int64) []Cell {
	cells := make([]Cell, 0, len(benches)*len(exps)*len(orders)*len(seeds))
	for _, b := range benches {
		for _, e := range exps {
			for _, o := range orders {
				for _, s := range seeds {
					cells = append(cells, Cell{Bench: b, Exp: e, Order: o, Seed: s})
				}
			}
		}
	}
	return cells
}

// CellSeed derives a per-cell solver seed from a base seed, mixing in the
// cell's coordinates so distinct cells draw distinct (but reproducible)
// variable orders. FNV-1a over the cell identity keeps it stable across
// runs and processes.
func CellSeed(base int64, c Cell) int64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0xff // field separator
		h *= prime
	}
	mix(c.Bench.Name)
	mix(c.Exp.Name)
	mix(c.Order.String())
	h ^= uint64(base)
	h *= prime
	// Keep the seed positive so it survives flag round-trips readably.
	return int64(h >> 1)
}
