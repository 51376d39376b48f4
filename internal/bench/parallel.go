package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"polce"
	"polce/internal/andersen"
)

// This file is the parallel experiment runner. The sequential harness
// (RunSuite) walks the benchmark × experiment matrix one cell at a time;
// for grid explorations (form × policy × order × seed) that leaves all but
// one core idle. RunParallel fans the cells across a worker pool instead.
// Each cell is fully self-contained — its own program load (cached behind
// a mutex), its own solver, and, for oracle policies, its own reference
// pass — so cells never share mutable state and the runner is race-free.
// Results are written by input index, so the output order is exactly the
// input order no matter how workers interleave.

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

// CellResult pairs a cell with its measurements. Results returned by
// RunParallel appear at the same index as their cell in the input slice.
type CellResult struct {
	Cell Cell
	Run  Run
	Err  error
}

// ParallelOptions configures RunParallel.
type ParallelOptions struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Repeat re-runs each timed cell and keeps the best time (0 = 1).
	Repeat int
	// Phases installs the telemetry sink per cell, recording closure time
	// and search-depth quantiles (see Options.Phases).
	Phases bool
}

// RunParallel measures every cell on a pool of workers. Cells are claimed
// with an atomic counter (no channel ordering involved) and each result is
// stored at its cell's input index, so the returned slice is order-stable:
// results[i].Cell == cells[i] regardless of worker count or scheduling.
func RunParallel(cells []Cell, opt ParallelOptions) []CellResult {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	results := make([]CellResult, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				results[i] = runCell(cells[i], opt)
			}
		}()
	}
	wg.Wait()
	return results
}

// runCell measures one cell in isolation. Oracle cells build their own
// oracle from a cell-local IF-Online reference pass (same program, order
// and seed), so no state crosses cell boundaries.
func runCell(c Cell, opt ParallelOptions) CellResult {
	p, err := load(c.Bench)
	if err != nil {
		return CellResult{Cell: c, Err: err}
	}
	var oracle *polce.Oracle
	if c.Exp.Cycles == polce.CycleOracle {
		ref := andersen.Analyze(p.file, andersen.Options{
			Form: polce.IF, Cycles: polce.CycleOnline, Seed: c.Seed, Order: c.Order,
		})
		oracle = polce.BuildOracle(ref.Sys)
	}
	repeat := opt.Repeat
	if repeat <= 0 {
		repeat = 1
	}
	run := runOne(p, c.Exp, oracle, Options{Seed: c.Seed, Order: c.Order, Phases: opt.Phases}, repeat)
	return CellResult{Cell: c, Run: run}
}

// Baseline is the committed benchmark-baseline format (BENCH_pr2.json):
// one record per grid cell with the phase timings and solver counters a
// later change can be diffed against. Timings are nanoseconds; counters
// are deterministic for a given cell, timings are environment-dependent.
type Baseline struct {
	Schema    string         `json:"schema"`
	Generated string         `json:"generated"` // RFC 3339
	GoVersion string         `json:"go_version"`
	Workers   int            `json:"workers"`
	Repeat    int            `json:"repeat"`
	Cells     []BaselineCell `json:"cells"`
}

// BaselineCell is one cell's record in a Baseline.
type BaselineCell struct {
	Benchmark  string `json:"benchmark"`
	Experiment string `json:"experiment"`
	Order      string `json:"order"`
	Seed       int64  `json:"seed"`

	SolveNS         int64 `json:"solve_ns"`
	ClosureNS       int64 `json:"closure_ns"`
	LeastSolutionNS int64 `json:"least_solution_ns"`
	TotalNS         int64 `json:"total_ns"`

	Edges      int     `json:"edges"`
	Work       int64   `json:"work"`
	Eliminated int     `json:"eliminated"`
	Searches   int64   `json:"searches"`
	Visits     int64   `json:"visits"`
	DepthP50   float64 `json:"depth_p50"`
	DepthP90   float64 `json:"depth_p90"`
	DepthMax   float64 `json:"depth_max"`

	// Least-solution engine shape (schema /2; zero for SF cells).
	LSLevels       int64   `json:"ls_levels"`
	LSUnionHitRate float64 `json:"ls_union_hit_rate"`
}

// NewBaseline assembles the baseline record for a parallel run. Cells with
// errors are skipped (the caller reports them separately).
func NewBaseline(results []CellResult, opt ParallelOptions, now time.Time) Baseline {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	repeat := opt.Repeat
	if repeat <= 0 {
		repeat = 1
	}
	b := Baseline{
		Schema:    "polce-bench-baseline/5",
		Generated: now.UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Workers:   workers,
		Repeat:    repeat,
	}
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		b.Cells = append(b.Cells, BaselineCell{
			Benchmark:       r.Cell.Bench.Name,
			Experiment:      r.Cell.Exp.Name,
			Order:           r.Cell.Order.String(),
			Seed:            r.Cell.Seed,
			SolveNS:         r.Run.SolveTime.Nanoseconds(),
			ClosureNS:       r.Run.ClosureTime.Nanoseconds(),
			LeastSolutionNS: r.Run.LSTime.Nanoseconds(),
			TotalNS:         r.Run.Time.Nanoseconds(),
			Edges:           r.Run.Edges,
			Work:            r.Run.Work,
			Eliminated:      r.Run.Eliminated,
			Searches:        r.Run.Searches,
			Visits:          r.Run.Visits,
			DepthP50:        r.Run.DepthP50,
			DepthP90:        r.Run.DepthP90,
			DepthMax:        r.Run.DepthMax,
			LSLevels:        r.Run.LSLevels,
			LSUnionHitRate:  r.Run.LSUnionHitRate,
		})
	}
	return b
}

// WriteBaseline writes the baseline as indented JSON.
func WriteBaseline(w io.Writer, b Baseline) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ParallelTable prints a compact per-cell summary of a parallel run.
func ParallelTable(w io.Writer, results []CellResult) {
	fmt.Fprintf(w, "%-14s %-12s %-9s %10s %10s %10s %10s %8s\n",
		"benchmark", "experiment", "order", "solve", "closure", "ls", "edges", "elim")
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(w, "%-14s %-12s %-9s ERROR: %v\n", r.Cell.Bench.Name, r.Cell.Exp.Name, r.Cell.Order, r.Err)
			continue
		}
		fmt.Fprintf(w, "%-14s %-12s %-9s %10s %10s %10s %10d %8d\n",
			r.Cell.Bench.Name, r.Cell.Exp.Name, r.Cell.Order,
			r.Run.SolveTime.Round(time.Microsecond),
			r.Run.ClosureTime.Round(time.Microsecond),
			r.Run.LSTime.Round(time.Microsecond),
			r.Run.Edges, r.Run.Eliminated)
	}
}
