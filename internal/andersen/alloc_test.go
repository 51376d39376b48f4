package andersen

import (
	"testing"

	"polce"
)

// raceEnabled is set under the race detector, whose instrumentation makes
// allocation counts meaningless.
var raceEnabled bool

// TestPointsToReadAllocations pins what a points-to read allocates once
// the least solution is computed. PointsToNames makes one slice of names;
// under standard form the solver also builds the term slice it reads, on
// every call. PointsToEdges and Stats count targets and make nothing.
func TestPointsToReadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range []struct {
		form  polce.Form
		names float64
	}{{polce.IF, 1}, {polce.SF, 2}} {
		r := analyze(t, queryProgram, Options{Form: c.form, Cycles: polce.CycleOnline, Seed: 3})
		q := r.LocationByName("q")
		var names []string
		// AllocsPerRun's warm-up call computes the least solution and, under
		// inductive form, the node's term view, which later reads share.
		if got := testing.AllocsPerRun(100, func() { names = r.PointsToNames(q) }); got != c.names {
			t.Errorf("%v: PointsToNames allocated %.1f times per call, want %.0f", c.form, got, c.names)
		}
		if len(names) != 2 {
			t.Errorf("%v: PointsToNames(q) = %v, want two names", c.form, names)
		}
	}
	r := queryResult(t)
	edges := r.PointsToEdges()
	if got := testing.AllocsPerRun(100, func() { edges = r.PointsToEdges() }); got != 0 {
		t.Errorf("PointsToEdges allocated %.1f times per call, want 0", got)
	}
	st := r.Stats()
	if got := testing.AllocsPerRun(100, func() { st = r.Stats() }); got != 0 {
		t.Errorf("Stats allocated %.1f times per call, want 0", got)
	}
	if edges == 0 || st.Edges != edges {
		t.Errorf("PointsToEdges = %d and Stats().Edges = %d, want the same non-zero count", edges, st.Edges)
	}
}
