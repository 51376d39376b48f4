package bench

import (
	"fmt"
	"io"

	"polce"
	"polce/internal/andersen"
)

// VerifyLeastSolutions checks the least-solution engine's determinism
// claim end-to-end: for every benchmark it runs IF-Online twice — once
// with the sequential pass (LSWorkers = 1) and once with the given worker
// count — and compares every location's LeastSolution term sequence
// exactly, order included. The two runs use separate solvers on the same
// deterministic program, so their location lists align by index. Any
// divergence is reported and an error returned; this is the CI gate
// behind the engine's "bit-identical at any worker count" contract.
func VerifyLeastSolutions(w io.Writer, benches []Benchmark, seed int64, workers int) error {
	if workers <= 1 {
		return fmt.Errorf("bench: verify needs workers > 1 (got %d)", workers)
	}
	bad := 0
	for _, b := range benches {
		p, err := load(b)
		if err != nil {
			return err
		}
		mismatches, locs, err := verifyOne(p, seed, workers)
		if err != nil {
			return err
		}
		if mismatches == 0 {
			fmt.Fprintf(w, "%-14s ok: %d locations identical (1 vs %d workers)\n", b.Name, locs, workers)
			continue
		}
		bad += mismatches
		fmt.Fprintf(w, "%-14s FAIL: %d of %d locations differ (1 vs %d workers)\n", b.Name, mismatches, locs, workers)
	}
	if bad > 0 {
		return fmt.Errorf("bench: parallel least-solution pass diverged on %d locations", bad)
	}
	return nil
}

// verifyOne compares the sequential and parallel least solutions of one
// program and returns the number of mismatching locations.
func verifyOne(p *program, seed int64, workers int) (mismatches, locs int, err error) {
	opts := andersen.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: seed}
	opts.LSWorkers = 1
	seq := andersen.Analyze(p.file, opts)
	opts.LSWorkers = workers
	par := andersen.Analyze(p.file, opts)
	seq.Sys.ComputeLeastSolutions()
	par.Sys.ComputeLeastSolutions()
	if len(seq.Locations) != len(par.Locations) {
		return 0, 0, fmt.Errorf("bench: location counts differ (%d vs %d); analysis is not deterministic", len(seq.Locations), len(par.Locations))
	}
	for i, sl := range seq.Locations {
		pl := par.Locations[i]
		a := seq.Sys.LeastSolution(sl.Content)
		b := par.Sys.LeastSolution(pl.Content)
		if !sameTermStrings(a, b) {
			mismatches++
		}
	}
	return mismatches, len(seq.Locations), nil
}

// sameTermStrings compares two term sequences by rendered content, in
// order. The runs use distinct *Term pointers, so identity comparison is
// not available across systems.
func sameTermStrings(a, b []*polce.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}
