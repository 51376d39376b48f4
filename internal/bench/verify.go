package bench

import (
	"fmt"
	"io"
	"sort"

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
// behind the engine's "bit-identical at any worker count" contract. Both
// runs use the given storage representation, so a `-repr csr` invocation
// gates the arena layout the same way.
func VerifyLeastSolutions(w io.Writer, benches []Benchmark, seed int64, workers int, repr polce.StorageRepr) error {
	if workers <= 1 {
		return fmt.Errorf("bench: verify needs workers > 1 (got %d)", workers)
	}
	bad := 0
	for _, b := range benches {
		p, err := load(b)
		if err != nil {
			return err
		}
		mismatches, locs, err := verifyOne(p, seed, workers, repr)
		if err != nil {
			return err
		}
		if mismatches == 0 {
			fmt.Fprintf(w, "%-14s ok: %d locations identical (1 vs %d workers, %s)\n", b.Name, locs, workers, repr)
			continue
		}
		bad += mismatches
		fmt.Fprintf(w, "%-14s FAIL: %d of %d locations differ (1 vs %d workers, %s)\n", b.Name, mismatches, locs, workers, repr)
	}
	if bad > 0 {
		return fmt.Errorf("bench: parallel least-solution pass diverged on %d locations", bad)
	}
	return nil
}

// verifyOne compares the sequential and parallel least solutions of one
// program and returns the number of mismatching locations.
func verifyOne(p *program, seed int64, workers int, repr polce.StorageRepr) (mismatches, locs int, err error) {
	opts := andersen.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: seed, Repr: repr}
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

// VerifyVEClosures checks the vertex-elimination closure's oracle
// property end-to-end: for every benchmark it runs IF-Online under the
// given storage representation, builds a closed-world VE closure with
// each elimination order, and compares every location's closure least
// solution — as a set — against the online engine's. Closure and online
// results come from the same solver, so terms compare by identity.
func VerifyVEClosures(w io.Writer, benches []Benchmark, seed int64, repr polce.StorageRepr) error {
	bad := 0
	for _, b := range benches {
		p, err := load(b)
		if err != nil {
			return err
		}
		res := andersen.Analyze(p.file, andersen.Options{
			Form: polce.IF, Cycles: polce.CycleOnline, Seed: seed, Repr: repr,
		})
		res.Sys.ComputeLeastSolutions()
		for _, ord := range []polce.VEOrder{polce.VEOrderMinDegree, polce.VEOrderTotal} {
			ve := res.Sys.BuildVEClosure(ord)
			mismatches := 0
			for _, l := range res.Locations {
				want := sortedTermSet(res.Sys.LeastSolution(l.Content))
				if !sameTerms(ve.LeastSolution(l.Content), want) {
					mismatches++
				}
			}
			if mismatches == 0 {
				fmt.Fprintf(w, "%-14s ok: %d locations identical (ve %s vs online, %s)\n",
					b.Name, len(res.Locations), ve.Order(), repr)
				continue
			}
			bad += mismatches
			fmt.Fprintf(w, "%-14s FAIL: %d of %d locations differ (ve %s vs online, %s)\n",
				b.Name, mismatches, len(res.Locations), ve.Order(), repr)
		}
	}
	if bad > 0 {
		return fmt.Errorf("bench: vertex-elimination closure diverged on %d locations", bad)
	}
	return nil
}

// sortedTermSet renders a least solution in the VE closure's reporting
// form: Seq-sorted with duplicates removed.
func sortedTermSet(src []*polce.Term) []*polce.Term {
	out := make([]*polce.Term, len(src))
	copy(out, src)
	sort.Slice(out, func(a, b int) bool { return out[a].Seq() < out[b].Seq() })
	w := 0
	for i, t := range out {
		if i > 0 && t == out[i-1] {
			continue
		}
		out[w] = t
		w++
	}
	return out[:w]
}

// sameTerms compares two term sequences by identity, in order.
func sameTerms(a, b []*polce.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
