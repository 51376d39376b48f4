package core

import (
	"runtime"
	"testing"
)

// raceEnabled is set under the race detector, whose instrumentation makes
// heap sizes meaningless.
var raceEnabled bool

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStorageFootprintPerVariable bounds what a variable costs in live
// heap under inductive form, where each also carries a least-solution
// slot: 10,000 variables with no edge, then 10,000 more with one source
// edge each. The per-id storage holds no pointers and an empty edge set
// is a zero reference, so an edgeless variable costs its 32-byte handle,
// its 32-byte node and 16 bytes of engine slots, plus the slack of
// slices grown by append; a source edge adds one set-table slot, the
// set's list and a pending-list entry.
func TestStorageFootprintPerVariable(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const n = 10000
	s := NewSystem(Options{Form: IF, Cycles: CycleOnline, Seed: 1})
	a := NewTerm(NewConstructor("a"))
	s.AddConstraint(a, s.Fresh("v")) // intern the term before measuring
	base := liveHeap()
	for i := 0; i < n; i++ {
		s.Fresh("v")
	}
	edgeless := liveHeap()
	for i := 0; i < n; i++ {
		s.AddConstraint(a, s.Fresh("v"))
	}
	edged := liveHeap()
	runtime.KeepAlive(s)
	perEdgeless := float64(edgeless-base) / n
	perEdged := float64(edged-edgeless) / n
	t.Logf("live bytes per variable: %.1f with no edge, %.1f with one source edge", perEdgeless, perEdged)
	if perEdgeless > 96 {
		t.Errorf("an edgeless variable costs %.1f live bytes, want at most 96", perEdgeless)
	}
	if perEdged > 152 {
		t.Errorf("a variable with one edge costs %.1f live bytes, want at most 152", perEdged)
	}
}
