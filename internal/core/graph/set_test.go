package graph

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
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

// checkSet compares the variable set's list with the reference's and,
// when the set is promoted, checks the index: load ≤ ½, one filled slot
// per entry, and every entry found at its own position.
func checkSet(s *VarSet, ref []*Var, shape *indexShape) error {
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
// blocks), un-forwarding as Store.ResetVar does it and compaction —
// through the hybrid small-set and the map-backed reference in
// lockstep, over a pool large enough that the index grows several times
// and compaction demotes and re-promotes it, and demands identical
// membership answers and insertion order throughout.
func TestHybridSetMatchesMapReference(t *testing.T) {
	var shape indexShape
	property := func(seed16 uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed16)))
		pool := make([]*Var, 320)
		for i := range pool {
			pool[i] = NewVar(fmt.Sprintf("p%d", i), i, uint64(i))
		}
		var hy VarSet
		var ref refSet[*Var]
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
			default: // canonicalise both sets
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
	if shape.maxSlots < 256 || shape.demotions == 0 || shape.promotions <= shape.demotions {
		t.Errorf("stream too tame: %+v (want ≥256 slots and re-promotion after demotion)", shape)
	}
}

// termShape tallies which index modes the term-set tests drove a set
// through, the switches between them, and the largest table seen.
type termShape struct {
	bitset, table, toTable, toBitset, maxSlots int
}

// indexMode names a term set's membership structure.
func indexMode(s *TermSet) string {
	switch {
	case s.idx == nil:
		return "scan"
	case s.idx.words != nil:
		return "bitset"
	}
	return "table"
}

// checkTermSet compares the term set's list with the reference's and, when
// the set is promoted, checks its index: the mode is the one the size rule
// picks for the set's length and largest id, a bitset spans exactly the
// words up to that id with one bit per entry, and a table sits at load
// ≤ ½ with one filled slot per entry and every entry found.
func checkTermSet(s *TermSet, ref []TermID, shape *termShape) error {
	if !slices.Equal(s.list, ref) {
		return fmt.Errorf("list %v, reference %v", s.list, ref)
	}
	if (s.idx != nil) != (len(s.list) > smallSetThreshold) {
		return fmt.Errorf("index present = %v at size %d", s.idx != nil, len(s.list))
	}
	if s.idx == nil {
		return nil
	}
	maxID := slices.Max(ref)
	if bitset := s.idx.words != nil; bitset != bitsFit(maxID, len(ref)) {
		return fmt.Errorf("bitset mode = %v for %d entries up to id %d", bitset, len(ref), maxID)
	}
	if s.idx.words != nil {
		shape.bitset++
		if len(s.idx.words) != int(maxID>>6)+1 {
			return fmt.Errorf("%d bitset words for largest id %d", len(s.idx.words), maxID)
		}
		n := 0
		for _, w := range s.idx.words {
			n += bits.OnesCount64(w)
		}
		if n != len(ref) {
			return fmt.Errorf("%d bits set for %d entries", n, len(ref))
		}
		for _, id := range ref {
			if !s.idx.Has(id) {
				return fmt.Errorf("entry %d missing from the bitset", id)
			}
		}
		return nil
	}
	shape.table++
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
	for _, id := range ref {
		if slot, found := s.idx.lookup(id); !found || s.idx.slots[slot] != int32(id)+1 {
			return fmt.Errorf("entry %d not in the table", id)
		}
	}
	return nil
}

// termPools are the id distributions the term-set tests draw from:
// dense ids (a store's first few hundred terms), which keep every
// promoted set in bitset mode; sparse ids spread over 2^24, which keep it
// in table mode; and mostly dense ids with a few high ones, whose first
// Add switches a bitset to a table that switches back once the set has
// grown enough for the bitset to fit again.
var termPools = map[string]func(rng *rand.Rand) []TermID{
	"dense": func(*rand.Rand) []TermID {
		pool := make([]TermID, 320)
		for i := range pool {
			pool[i] = TermID(i)
		}
		return pool
	},
	"sparse": func(rng *rand.Rand) []TermID {
		pool := make([]TermID, 320)
		for i := range pool {
			pool[i] = TermID(rng.Intn(1 << 24))
		}
		return pool
	},
	"switching": func(*rand.Rand) []TermID {
		pool := make([]TermID, 320)
		for i := range pool {
			pool[i] = TermID(i)
		}
		for i := 0; i < len(pool); i += 40 {
			pool[i] = TermID(4000 + 7*i)
		}
		return pool
	},
}

// TestTermSetMatchesMapReference is the TermSet sibling: inserts, probes
// (of ids inside, past the end of and far beyond any bitset) and release
// (a variable reset for retraction) against the map-backed reference, over dense, sparse and switching id pools. Besides answers
// and insertion order it checks the index mode each pool must reach.
func TestTermSetMatchesMapReference(t *testing.T) {
	for name, pool := range termPools {
		t.Run(name, func(t *testing.T) {
			var shape termShape
			property := func(seed16 uint16) bool {
				rng := rand.New(rand.NewSource(int64(seed16)))
				ids := pool(rng)
				var hy TermSet
				var ref refSet[TermID]
				for op := 0; op < 800; op++ {
					id := ids[rng.Intn(len(ids))]
					before := indexMode(&hy)
					switch r := rng.Intn(39); {
					case r < 24:
						if hy.Add(id) != ref.add(id) {
							t.Logf("seed %d op %d: add(%d) disagrees", seed16, op, id)
							return false
						}
					case r < 36:
						if hy.Has(id) != ref.has(id) {
							t.Logf("seed %d op %d: has(%d) disagrees", seed16, op, id)
							return false
						}
					case r < 38:
						far := id + 1<<30
						if hy.Has(far) != ref.has(far) {
							t.Logf("seed %d op %d: has(%d) disagrees", seed16, op, far)
							return false
						}
					default:
						hy.release()
						ref = refSet[TermID]{}
					}
					if err := checkTermSet(&hy, ref.list, &shape); err != nil {
						t.Logf("seed %d op %d: %v", seed16, op, err)
						return false
					}
					switch after := indexMode(&hy); {
					case before == "bitset" && after == "table":
						shape.toTable++
					case before == "table" && after == "bitset":
						shape.toBitset++
					}
				}
				return true
			}
			if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
				t.Error(err)
			}
			switch name {
			case "dense":
				if shape.bitset == 0 || shape.table != 0 {
					t.Errorf("dense ids: %+v, want bitset mode only", shape)
				}
			case "sparse":
				if shape.maxSlots < 256 || shape.bitset != 0 {
					t.Errorf("sparse ids: %+v, want table mode only, grown past 256 slots", shape)
				}
			default:
				if shape.toTable == 0 || shape.toBitset == 0 {
					t.Errorf("switching ids: %+v, want switches both ways", shape)
				}
			}
		})
	}
}

// FuzzTermSet decodes its input into TermSet Add and Has calls, two bytes
// per call, and checks every answer, the insertion order and the index
// mode against a map-and-slice reference. In the first byte, bit 0 picks
// Add or Has and bit 1 picks a dense id (the second byte) or a sparse one
// (the second byte shifted into the high bits of a 22-bit id, the first
// byte's top six bits below it), so one input can hold sets in bitset
// mode, in table mode, and switching between them.
func FuzzTermSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var s TermSet
		var ref refSet[TermID]
		var shape termShape
		for i := 0; i+1 < len(data); i += 2 {
			op, b := data[i], data[i+1]
			id := TermID(b)
			if op&2 != 0 {
				id = TermID(b)<<14 | TermID(op>>2)
			}
			if op&1 == 0 {
				if got, want := s.Add(id), ref.add(id); got != want {
					t.Fatalf("call %d: Add(%d) = %v, reference %v", i/2, id, got, want)
				}
			} else if got, want := s.Has(id), ref.has(id); got != want {
				t.Fatalf("call %d: Has(%d) = %v, reference %v", i/2, id, got, want)
			}
			if err := checkTermSet(&s, ref.list, &shape); err != nil {
				t.Fatalf("call %d: %v", i/2, err)
			}
		}
	})
}

// TestIndexExactUnderKeyCollisions fills sets whose elements all share one
// home slot and demands exact answers. The term half uses distinct ids
// that a table-mode set hashes to one slot, so every probe walks the
// collision chain. The variable half uses variables with equal creation
// index: the position index must compare the stored element, never the
// key.
func TestIndexExactUnderKeyCollisions(t *testing.T) {
	const n = 3 * smallSetThreshold
	size, shift := tableSize(n)
	home := func(id TermID) uint32 { return (uint32(id) * fib32) >> shift }
	ids := make([]TermID, 0, n)
	for id := TermID(1 << 20); len(ids) < n; id++ {
		if home(id) == 0 {
			ids = append(ids, id)
		}
	}
	vars := make([]*Var, n)
	for i := range vars {
		vars[i] = NewVar(fmt.Sprintf("v%d", i), 7, uint64(i))
	}
	var ts TermSet
	var vs VarSet
	for i := 0; i < n; i++ {
		if !ts.Add(ids[i]) || !vs.Add(vars[i]) {
			t.Fatalf("add %d: colliding element reported present", i)
		}
		if ts.Add(ids[i]) || vs.Add(vars[i]) {
			t.Fatalf("re-add %d reported new", i)
		}
		for j := range ids {
			if ts.Has(ids[j]) != (j <= i) || vs.Has(vars[j]) != (j <= i) {
				t.Fatalf("after %d adds: Has(%d) wrong", i+1, j)
			}
		}
	}
	if ts.idx == nil || ts.idx.words != nil || len(ts.idx.slots) != size || vs.idx == nil {
		t.Fatal("sets never promoted to a colliding table and position index")
	}
	idx := NewTermIndex(ids[:n/2])
	for j, id := range ids {
		if idx.Has(id) != (j < n/2) {
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

// TestVarSize pins graph.Var at 208 bytes on 64-bit platforms. That fills
// the 208-byte malloc size class exactly; one more word would move every
// variable of every workload into the 224-byte class, 16 B each.
func TestVarSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Var{}); got != 208 {
		t.Fatalf("unsafe.Sizeof(Var{}) = %d, want 208", got)
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
