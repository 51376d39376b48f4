package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// refSet is the pre-hybrid, always-map-backed reference implementation
// of the adjacency set: an insertion-ordered slice plus a membership map,
// as core used before the hybrid small-set representation. The hybrid set
// must be observationally identical to it.
type refSet[T comparable] struct {
	list []T
	set  map[T]struct{}
}

func (s *refSet[T]) add(v T) bool {
	if _, ok := s.set[v]; ok {
		return false
	}
	if s.set == nil {
		s.set = make(map[T]struct{})
	}
	s.set[v] = struct{}{}
	s.list = append(s.list, v)
	return true
}

func (s *refSet[T]) has(v T) bool {
	_, ok := s.set[v]
	return ok
}

func compactRef(s *refSet[*Var], self *Var) []*Var {
	out := s.list[:0]
	seen := make(map[*Var]struct{})
	s.set = seen
	for _, v := range s.list {
		v = Find(v)
		if v == self {
			continue
		}
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	s.list = out
	return out
}

// indexShape tallies what the property tests drove the position index
// through, so they can demand that growth, demotion and re-promotion
// actually happened.
type indexShape struct {
	maxSlots, demotions, promotions int
}

// checkSet compares the hybrid set's list with the reference's and, when
// the set is promoted, checks the index: load ≤ ½, one filled slot per
// entry, and every entry found at its own position.
func checkSet[T setElem](s *SmallSet[T], ref []T, shape *indexShape) error {
	if len(s.list) != len(ref) {
		return fmt.Errorf("list length %d != %d", len(s.list), len(ref))
	}
	for i := range s.list {
		if s.list[i] != ref[i] {
			return fmt.Errorf("insertion order differs at %d", i)
		}
	}
	if (s.idx != nil) != (len(s.list) > smallSetThreshold) {
		return fmt.Errorf("index present = %v at size %d", s.idx != nil, len(s.list))
	}
	if s.idx == nil {
		return nil
	}
	shape.maxSlots = max(shape.maxSlots, len(s.idx.slots))
	if 2*len(s.list) > len(s.idx.slots) {
		return fmt.Errorf("load %d/%d above one half", len(s.list), len(s.idx.slots))
	}
	filled := 0
	for _, p := range s.idx.slots {
		if p != 0 {
			filled++
		}
	}
	if filled != len(s.list) {
		return fmt.Errorf("%d filled slots for %d entries", filled, len(s.list))
	}
	for i, v := range s.list {
		slot, found := s.lookup(v)
		if !found || s.idx.slots[slot] != int32(i+1) {
			return fmt.Errorf("entry %d not indexed at its position", i)
		}
	}
	return nil
}

// TestHybridSetMatchesMapReference drives random operation streams —
// inserts, membership probes, collapse-style forwarding (single and whole
// blocks), un-forwarding as Store.ResetVar does it, compaction and CSR
// repacks — through the hybrid small-set and the map-backed reference in
// lockstep, over a pool large enough that the index grows several times
// and compaction demotes and re-promotes it, and demands identical
// membership answers and insertion order throughout.
func TestHybridSetMatchesMapReference(t *testing.T) {
	var shape indexShape
	property := func(seed16 uint16, csr bool) bool {
		rng := rand.New(rand.NewSource(int64(seed16)))
		pool := make([]*Var, 320)
		for i := range pool {
			pool[i] = NewVar(fmt.Sprintf("p%d", i), i, uint64(i))
		}
		var hy VarSet
		var ref refSet[*Var]
		var ar *arena[*Var]
		if csr {
			ar = &arena[*Var]{}
			hy.ar = ar
		}
		self := pool[0]
		for op := 0; op < 800; op++ {
			v := pool[rng.Intn(len(pool))]
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // insert
				promoted := hy.idx != nil
				if hy.Add(v) != ref.add(v) {
					t.Logf("seed %d op %d: add(%s) disagrees", seed16, op, v)
					return false
				}
				if !promoted && hy.idx != nil {
					shape.promotions++
				}
			case 5, 6: // membership probe
				if hy.Has(v) != ref.has(v) {
					t.Logf("seed %d op %d: has(%s) disagrees", seed16, op, v)
					return false
				}
			case 7: // collapse: forward v, or a whole block, to lower ids
				if v == self || v.parent != nil {
					break
				}
				if rng.Intn(4) > 0 {
					v.parent = pool[rng.Intn(v.id)]
					break
				}
				for _, w := range pool[v.id+1 : min(v.id+100, len(pool))] {
					if w.parent == nil {
						w.parent = v
					}
				}
			case 8: // un-forward, as Store.ResetVar does to a listed variable
				v.parent = nil
			default: // canonicalise both sets, sometimes repack
				promoted := hy.idx != nil
				h := hy.Compact(self)
				r := compactRef(&ref, self)
				if promoted && hy.idx == nil {
					shape.demotions++
				}
				if len(h) != len(r) {
					t.Logf("seed %d op %d: compact length %d != %d", seed16, op, len(h), len(r))
					return false
				}
				for i := range h {
					if h[i] != r[i] {
						t.Logf("seed %d op %d: compact order differs at %d", seed16, op, i)
						return false
					}
				}
				if ar != nil && rng.Intn(3) == 0 {
					ar.reset()
					hy.repack(ar)
				}
			}
			if err := checkSet(&hy.SmallSet, ref.list, &shape); err != nil {
				t.Logf("seed %d op %d: %v", seed16, op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	if shape.maxSlots < 256 || shape.demotions == 0 || shape.promotions <= shape.demotions {
		t.Errorf("stream too tame: %+v (want ≥256 slots and re-promotion after demotion)", shape)
	}
}

// TestTermSetMatchesMapReference is the TermSet sibling: inserts, probes,
// Take (a collapsed variable handing its terms to the witness) and CSR
// repacks against the map-backed reference.
func TestTermSetMatchesMapReference(t *testing.T) {
	c := NewConstructor("c")
	pool := make([]*Term, 320)
	for i := range pool {
		pool[i] = NewTerm(c)
	}
	var shape indexShape
	property := func(seed16 uint16, csr bool) bool {
		rng := rand.New(rand.NewSource(int64(seed16)))
		var hy TermSet
		var ref refSet[*Term]
		var ar *arena[*Term]
		if csr {
			ar = &arena[*Term]{}
			hy.ar = ar
		}
		for op := 0; op < 800; op++ {
			v := pool[rng.Intn(len(pool))]
			switch r := rng.Intn(40); {
			case r < 24:
				if hy.Add(v) != ref.add(v) {
					t.Logf("seed %d op %d: add disagrees", seed16, op)
					return false
				}
			case r < 38:
				if hy.Has(v) != ref.has(v) {
					t.Logf("seed %d op %d: has disagrees", seed16, op)
					return false
				}
			case r == 38:
				got := hy.Take()
				if len(got) != len(ref.list) {
					t.Logf("seed %d op %d: Take returned %d entries, want %d", seed16, op, len(got), len(ref.list))
					return false
				}
				ref = refSet[*Term]{}
			default:
				if ar != nil {
					ar.reset()
					hy.repack(ar)
				}
			}
			if err := checkSet(&hy, ref.list, &shape); err != nil {
				t.Logf("seed %d op %d: %v", seed16, op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	if shape.maxSlots < 256 {
		t.Errorf("index never grew past %d slots", shape.maxSlots)
	}
}

// TestIndexExactUnderKeyCollisions fills sets whose elements all share one
// hash key — terms with equal seq (Term.seq is a global uint32 that can
// wrap) and variables with equal id — and demands exact answers: the index
// must compare the stored element, never the key.
func TestIndexExactUnderKeyCollisions(t *testing.T) {
	const n = 3 * smallSetThreshold
	c := NewConstructor("k")
	terms := make([]*Term, n)
	vars := make([]*Var, n)
	for i := range terms {
		terms[i] = NewTerm(c)
		terms[i].seq = 7
		vars[i] = NewVar(fmt.Sprintf("v%d", i), 7, uint64(i))
	}
	var ts TermSet
	var vs VarSet
	for i := 0; i < n; i++ {
		if !ts.Add(terms[i]) || !vs.Add(vars[i]) {
			t.Fatalf("add %d: colliding element reported present", i)
		}
		if ts.Add(terms[i]) || vs.Add(vars[i]) {
			t.Fatalf("re-add %d reported new", i)
		}
		for j := range terms {
			if ts.Has(terms[j]) != (j <= i) || vs.Has(vars[j]) != (j <= i) {
				t.Fatalf("after %d adds: Has(%d) wrong", i+1, j)
			}
		}
	}
	if ts.idx == nil || vs.idx == nil {
		t.Fatal("sets never promoted to the index")
	}
	idx := NewTermIndex(terms[:n/2])
	for j, u := range terms {
		if idx.Has(u) != (j < n/2) {
			t.Fatalf("TermIndex.Has(%d) wrong", j)
		}
	}
}

// TestCompactCanonicalSetUntouched pins Compact's fast path: on a set with
// no forwarded entry and no entry equal to self it returns the set's own
// backing array, every element in place, and allocates nothing — below
// and above the promotion threshold.
func TestCompactCanonicalSetUntouched(t *testing.T) {
	self := NewVar("self", 0, 0)
	for _, n := range []int{smallSetThreshold / 2, 4 * smallSetThreshold} {
		vars := make([]*Var, n)
		var s VarSet
		for i := range vars {
			vars[i] = NewVar(fmt.Sprintf("c%d", i), i+1, uint64(i+1))
			s.Add(vars[i])
		}
		base := &s.List()[0]
		allocs := testing.AllocsPerRun(100, func() {
			out := s.Compact(self)
			if len(out) != n || &out[0] != base {
				t.Fatalf("n=%d: Compact moved or resized the list", n)
			}
			for i, v := range out {
				if v != vars[i] {
					t.Fatalf("n=%d: element %d moved", n, i)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d: Compact allocated %.1f times per call", n, allocs)
		}
	}
}

// TestVarSize pins graph.Var at 240 bytes on 64-bit platforms. That fills
// the 240-byte malloc size class exactly; one more word would move every
// variable of every workload into the 256-byte class, 16 B each.
func TestVarSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Var{}); got != 240 {
		t.Fatalf("unsafe.Sizeof(Var{}) = %d, want 240", got)
	}
}

// TestHybridSetPromotionBoundary pins the promotion behaviour: a set stays
// map-free up to the threshold, promotes beyond it, and keeps answering
// identically around the boundary.
func TestHybridSetPromotionBoundary(t *testing.T) {
	vars := make([]*Var, 2*smallSetThreshold)
	for i := range vars {
		vars[i] = NewVar(fmt.Sprintf("b%d", i), i, uint64(i))
	}
	var s VarSet
	for i, v := range vars {
		if !s.Add(v) {
			t.Fatalf("add(%d) not new", i)
		}
		if s.Add(v) {
			t.Fatalf("re-add(%d) reported new", i)
		}
		wantMap := len(s.list) > smallSetThreshold
		if (s.idx != nil) != wantMap {
			t.Fatalf("after %d inserts: index present = %v, want %v", i+1, s.idx != nil, wantMap)
		}
		for j := 0; j <= i; j++ {
			if !s.Has(vars[j]) {
				t.Fatalf("after %d inserts: has(%d) = false", i+1, j)
			}
		}
		if s.Has(vars[len(vars)-1]) && i < len(vars)-1 {
			t.Fatalf("after %d inserts: phantom membership", i+1)
		}
		if s.Size() != i+1 {
			t.Fatalf("size = %d, want %d", s.Size(), i+1)
		}
	}
	for i, v := range s.list {
		if v != vars[i] {
			t.Fatalf("insertion order broken at %d", i)
		}
	}
}

// TestTakeEmptiesSet pins Take's contract: it hands back the stored list
// and leaves the set empty and reusable in slice mode.
func TestTakeEmptiesSet(t *testing.T) {
	var s VarSet
	vars := make([]*Var, smallSetThreshold+4)
	for i := range vars {
		vars[i] = NewVar(fmt.Sprintf("t%d", i), i, uint64(i))
		s.Add(vars[i])
	}
	got := s.Take()
	if len(got) != len(vars) {
		t.Fatalf("Take returned %d entries, want %d", len(got), len(vars))
	}
	if s.Size() != 0 || s.idx != nil {
		t.Fatalf("set not emptied by Take")
	}
	if !s.Add(vars[0]) {
		t.Fatalf("re-add after Take not new")
	}
}
