package graph

import (
	"fmt"
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

func compactRef(s *refSet[int32], st *Store, self int32) []int32 {
	out := s.list[:0]
	seen := make(map[int32]struct{})
	s.set = seen
	for _, v := range s.list {
		v = st.Find(v)
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

// checkSet compares the variable set's list with the reference's, runs
// VarSet.Check on its representation and, when the set is promoted,
// checks the load ≤ ½ that Check leaves to the growth rule.
func checkSet(s *VarSet, ref []int32, shape *indexShape) error {
	if !slices.Equal(s.list, ref) {
		return fmt.Errorf("list %v, reference %v", s.list, ref)
	}
	if err := s.Check(); err != nil {
		return err
	}
	if s.idx == nil {
		return nil
	}
	shape.maxSlots = max(shape.maxSlots, len(s.idx.slots))
	if 2*len(s.list) > len(s.idx.slots) {
		return fmt.Errorf("load %d/%d above one half", len(s.list), len(s.idx.slots))
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
		var st Store
		for i := 0; i < 320; i++ {
			st.Fresh(fmt.Sprintf("p%d", i), uint64(i))
		}
		parent := func(v int32) *int32 { return &st.nodes[v].parent }
		var hy VarSet
		var ref refSet[int32]
		const self = 0
		for op := 0; op < 800; op++ {
			v := int32(rng.Intn(st.NumIDs()))
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // insert
				promoted := hy.idx != nil
				if hy.Add(v) != ref.add(v) {
					t.Logf("seed %d op %d: add(%d) disagrees", seed16, op, v)
					return false
				}
				if !promoted && hy.idx != nil {
					shape.promotions++
				}
			case 5, 6: // membership probe
				if hy.Has(v) != ref.has(v) {
					t.Logf("seed %d op %d: has(%d) disagrees", seed16, op, v)
					return false
				}
			case 7: // collapse: forward v, or a whole block, to lower ids
				if v == self || st.Forwarded(v) {
					break
				}
				if rng.Intn(4) > 0 {
					*parent(v) = int32(rng.Intn(int(v)))
					break
				}
				for w := v + 1; w < min(v+100, int32(st.NumIDs())); w++ {
					if !st.Forwarded(w) {
						*parent(w) = v
					}
				}
			case 8: // un-forward, as Store.ResetVar does
				*parent(v) = v
			default: // canonicalise both sets
				promoted := hy.idx != nil
				h := hy.Compact(&st, self)
				r := compactRef(&ref, &st, self)
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

// checkTermSet compares the term set's list with the reference's, runs
// TermSet.Check on its representation and, when the set is promoted,
// checks what Check leaves to the size rule: the mode is the one the rule
// picks for the set's length and largest id, a bitset spans exactly the
// words up to that id, and a table sits at load ≤ ½.
func checkTermSet(s *TermSet, ref []TermID, shape *termShape) error {
	if !slices.Equal(s.list, ref) {
		return fmt.Errorf("list %v, reference %v", s.list, ref)
	}
	if err := s.Check(); err != nil {
		return err
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
		return nil
	}
	shape.table++
	shape.maxSlots = max(shape.maxSlots, len(s.idx.slots))
	if 2*len(s.list) > len(s.idx.slots) {
		return fmt.Errorf("load %d/%d above one half", len(s.list), len(s.idx.slots))
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

// FuzzVarSet is FuzzTermSet's twin for variable sets: it decodes its input
// into VarSet calls, two bytes per call, over 256 variables of one store,
// and checks every answer, the insertion order and the index against the
// map-and-slice reference. The first byte's low two bits pick Add, Has,
// a forwarding change or Compact, and the second byte names the variable.
// A forwarding change points the variable at a lower id (the first
// byte's top six bits pick which) or, when it already forwards,
// un-forwards it as Store.ResetVar does; parents always point down, so
// forwarding stays acyclic.
func FuzzVarSet(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 6, 3, 3, 0, 1, 3})
	seed := make([]byte, 0, 80)
	for v := byte(1); v <= 20; v++ {
		seed = append(seed, 0, v) // past the promotion threshold
	}
	seed = append(seed, 2|5<<2, 9, 2|3<<2, 17, 3, 0, 1, 9, 2, 9, 3, 0)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var st Store
		for i := 0; i < 256; i++ {
			st.Fresh("v", uint64(i))
		}
		var s VarSet
		var ref refSet[int32]
		var shape indexShape
		for i := 0; i+1 < len(data); i += 2 {
			op, v := data[i], int32(data[i+1])
			switch op & 3 {
			case 0:
				if got, want := s.Add(v), ref.add(v); got != want {
					t.Fatalf("call %d: Add(%d) = %v, reference %v", i/2, v, got, want)
				}
			case 1:
				if got, want := s.Has(v), ref.has(v); got != want {
					t.Fatalf("call %d: Has(%d) = %v, reference %v", i/2, v, got, want)
				}
			case 2:
				switch {
				case st.Forwarded(v):
					st.nodes[v].parent = v
				case v > 0:
					st.nodes[v].parent = int32(op>>2) % v
				}
			default:
				h, r := s.Compact(&st, 0), compactRef(&ref, &st, 0)
				if !slices.Equal(h, r) {
					t.Fatalf("call %d: Compact = %v, reference %v", i/2, h, r)
				}
			}
			if err := checkSet(&s, ref.list, &shape); err != nil {
				t.Fatalf("call %d: %v", i/2, err)
			}
		}
	})
}

// TestIndexExactUnderKeyCollisions fills sets whose elements all share one
// home slot and demands exact answers. The term half uses distinct ids
// that a table-mode set hashes to one slot, so every probe walks the
// collision chain. The variable half does the same with variable ids: the
// position index must compare the element stored at each probed position,
// not stop at the first filled slot.
func TestIndexExactUnderKeyCollisions(t *testing.T) {
	const n = 3 * smallSetThreshold
	size, shift := tableSize(n)
	home := func(id uint32) uint32 { return (id * fib32) >> shift }
	ids := make([]TermID, 0, n)
	for id := TermID(1 << 20); len(ids) < n; id++ {
		if home(uint32(id)) == 0 {
			ids = append(ids, id)
		}
	}
	vars := make([]int32, 0, n)
	for id := int32(1); len(vars) < n; id++ {
		if home(uint32(id)) == 0 {
			vars = append(vars, id)
		}
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
	var st Store
	self := st.Fresh("self", 0).DenseID()
	for _, n := range []int{smallSetThreshold / 2, 4 * smallSetThreshold} {
		vars := make([]int32, n)
		var s VarSet
		for i := range vars {
			vars[i] = st.Fresh(fmt.Sprintf("c%d", i), uint64(i+1)).DenseID()
			s.Add(vars[i])
		}
		base := &s.list[0]
		allocs := testing.AllocsPerRun(100, func() {
			out := s.Compact(&st, self)
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

// TestVarSize pins the per-variable storage on 64-bit platforms: a *Var
// handle is 32 bytes (name, store, dense id, creation index), which fills
// its malloc size class and sits in pages of 64, and a node is 32 bytes
// (order, parent, clean epoch, four set references) and holds no pointer.
func TestVarSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Var{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Var{}) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(node{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(node{}) = %d, want 32", got)
	}
}

// TestHybridSetPromotionBoundary pins the promotion behaviour: a set stays
// map-free up to the threshold, promotes beyond it, and keeps answering
// identically around the boundary.
func TestHybridSetPromotionBoundary(t *testing.T) {
	vars := make([]int32, 2*smallSetThreshold)
	for i := range vars {
		vars[i] = int32(i)
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
	vars := make([]int32, smallSetThreshold+4)
	for i := range vars {
		vars[i] = int32(i)
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
