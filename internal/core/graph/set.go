package graph

import (
	"fmt"
	"math/bits"
	"slices"
)

// Threshold is the size at which a hybrid adjacency set promotes from a
// plain linear-scanned slice to slice + membership index. Most variables
// in real constraint graphs have only a handful of edges (the closed
// graphs sit near density k ≈ 2, see the paper's Section 5), so staying
// below the threshold avoids an index allocation per adjacency set — up to
// four per variable.
const smallSetThreshold = 8

// Both kinds of adjacency set are insertion-ordered. The slice preserves
// insertion order so that graph closure — and therefore cycle detection,
// which is sensitive to the order in which edges appear — is
// deterministic for a deterministic client. Membership is answered by
// scanning the slice while the set is small; once it outgrows the
// threshold an index is built and kept in sync.

// fib32 is 2^32 divided by the golden ratio, the Fibonacci hashing
// multiplier.
const fib32 = 0x9E3779B9

// tableSize returns the power-of-two size of an open-addressed table that
// holds n entries at load ≤ ½, and the shift that keeps a 32-bit hash's
// top bits as the home slot.
func tableSize(n int) (size int, shift uint32) {
	size, shift = 1, 32
	for size < 2*n {
		size *= 2
		shift--
	}
	return size, shift
}

// VarSet is the variable adjacency set: dense variable ids in insertion
// order. After cycles are collapsed, entries may become stale (their
// variable forwarded to a witness); stale entries are canonicalised
// lazily by Compact.
type VarSet struct {
	list []int32
	idx  *posIndex // nil while len(list) <= smallSetThreshold
}

// posIndex is an open-addressed hash index into a VarSet's list: each slot
// holds a list position plus one, 0 marking an empty slot. Probes are
// linear from a Fibonacci hash of the variable's id, and a probe compares
// the id stored at the slot's list position. Slots hold no pointers, so
// the garbage collector never scans them.
type posIndex struct {
	slots []int32
	shift uint32
}

// lookup probes for v. It returns v's slot if present, otherwise the
// empty slot where v's position belongs.
func (s *VarSet) lookup(v int32) (slot int, found bool) {
	slots := s.idx.slots
	mask := len(slots) - 1
	i := int((uint32(v) * fib32) >> s.idx.shift)
	for {
		p := slots[i]
		if p == 0 {
			return i, false
		}
		if s.list[p-1] == v {
			return i, true
		}
		i = (i + 1) & mask
	}
}

// reindex sizes the index for the list at load ≤ ½ and rebuilds it. The
// list holds no duplicates.
func (s *VarSet) reindex() {
	if s.idx == nil {
		s.idx = &posIndex{}
	}
	size, shift := tableSize(len(s.list))
	s.idx.slots, s.idx.shift = make([]int32, size), shift
	for i, v := range s.list {
		slot, _ := s.lookup(v)
		s.idx.slots[slot] = int32(i + 1)
	}
}

// Add inserts v and reports whether it was new.
func (s *VarSet) Add(v int32) bool {
	if s.idx != nil {
		slot, found := s.lookup(v)
		if found {
			return false
		}
		s.list = append(s.list, v)
		s.idx.slots[slot] = int32(len(s.list))
		if 2*len(s.list) > len(s.idx.slots) {
			s.reindex()
		}
		return true
	}
	if slices.Contains(s.list, v) {
		return false
	}
	s.list = append(s.list, v)
	if len(s.list) > smallSetThreshold {
		s.reindex()
	}
	return true
}

// Has reports whether v is present (under the exact id; callers
// canonicalise variables first).
func (s *VarSet) Has(v int32) bool {
	if s.idx != nil {
		_, found := s.lookup(v)
		return found
	}
	return slices.Contains(s.list, v)
}

// Size returns the number of stored entries, including stale aliases.
func (s *VarSet) Size() int { return len(s.list) }

// Take removes and returns all entries, leaving the set empty. Used when a
// collapsed variable's edges are re-inserted onto the witness.
func (s *VarSet) Take() []int32 {
	l := s.list
	s.release()
	return l
}

// release drops the set's contents.
func (s *VarSet) release() {
	s.list = nil
	s.idx = nil
}

// Compact canonicalises every entry under st.Find, dropping duplicates
// and any entry equal to self. It returns the canonical slice, which
// aliases the set's own storage. A set with no forwarded entry and no
// entry equal to self is already canonical (Add rejects duplicates) and
// is returned untouched. A set that shrinks back under the threshold
// demotes to the plain-slice representation.
func (s *VarSet) Compact(st *Store, self int32) []int32 {
	stale := false
	nodes := st.nodes
	for _, v := range s.list {
		if nodes[v].parent != v || v == self {
			stale = true
			break
		}
	}
	if !stale {
		return s.list
	}
	out := s.list[:0]
	if s.idx == nil {
		for _, v := range s.list {
			v = st.Find(v)
			if v == self || slices.Contains(out, v) {
				continue
			}
			out = append(out, v)
		}
		s.list = out
		return out
	}
	// Refill the index as out grows in place: every position it holds is
	// below the read cursor, so lookup sees only canonical entries.
	clear(s.idx.slots)
	for _, v := range s.list {
		v = st.Find(v)
		if v == self {
			continue
		}
		slot, found := s.lookup(v)
		if found {
			continue
		}
		out = append(out, v)
		s.idx.slots[slot] = int32(len(out))
	}
	s.list = out
	if len(out) <= smallSetThreshold {
		s.idx = nil
	}
	return out
}

// TermSet is the source/sink adjacency set: the ids (see Store.Intern) of
// the terms on one side of a variable. Terms never forward, so no
// compaction is needed: a term set only grows until it is released.
type TermSet struct {
	list []TermID
	idx  *TermIndex // nil while len(list) <= smallSetThreshold
}

// TermIndex is a membership index over term ids: the index of a promoted
// term set, and a read-only index (NewTermIndex) for engines that probe
// large term lists built elsewhere. It works in one of two modes. In
// bitset mode (words non-nil) bit id of words is set exactly when id is
// in the set. In table mode slots is an open-addressed table sized at
// load ≤ ½, each filled slot holding an id plus one (0 marks an empty
// slot), probed linearly from a Fibonacci hash of the id. Ids are unique
// within a store, so a table probe compares the slot itself and never
// reads the list. Neither mode holds pointers.
//
// The bitset is used while it is no larger than the table would be:
// maxID/64 + 1 words against half the table's int32 slots. Term ids are
// dense per store, so most large sets fit; a set of a few high ids takes
// the table. An Add past the bitset's end re-checks the rule, and a table
// that outgrows its load rebuilds under it, so a set can switch either
// way as it grows.
type TermIndex struct {
	words []uint64
	slots []int32
	shift uint32
}

// NewTermIndex indexes ids, which must be non-empty and hold no
// duplicates. The index does not alias ids.
func NewTermIndex(ids []TermID) *TermIndex {
	x := &TermIndex{}
	x.build(ids)
	return x
}

// bitsFit reports whether a bitset reaching maxID is no larger than the
// table for n entries.
func bitsFit(maxID TermID, n int) bool {
	size, _ := tableSize(n)
	return int(maxID>>6)+1 <= size/2
}

// Has reports whether id is in the index.
func (x *TermIndex) Has(id TermID) bool {
	if x.words != nil {
		w := int(id >> 6)
		return w < len(x.words) && x.words[w]&(1<<(id&63)) != 0
	}
	_, found := x.lookup(id)
	return found
}

// lookup probes the table for id. It returns id's slot if present,
// otherwise the empty slot where id belongs.
func (x *TermIndex) lookup(id TermID) (slot int, found bool) {
	slots := x.slots
	mask := len(slots) - 1
	key := int32(id) + 1
	i := int((uint32(id) * fib32) >> x.shift)
	for {
		switch slots[i] {
		case key:
			return i, true
		case 0:
			return i, false
		}
		i = (i + 1) & mask
	}
}

// build indexes ids, which hold no duplicates, in the mode the size rule
// picks.
func (x *TermIndex) build(ids []TermID) {
	maxID := slices.Max(ids)
	if bitsFit(maxID, len(ids)) {
		x.words, x.slots = make([]uint64, maxID>>6+1), nil
		for _, id := range ids {
			x.words[id>>6] |= 1 << (id & 63)
		}
		return
	}
	size, shift := tableSize(len(ids))
	x.words, x.slots, x.shift = nil, make([]int32, size), shift
	for _, id := range ids {
		slot, _ := x.lookup(id)
		x.slots[slot] = int32(id) + 1
	}
}

// Add inserts id and reports whether it was new.
func (s *TermSet) Add(id TermID) bool {
	x := s.idx
	switch {
	case x == nil:
		if slices.Contains(s.list, id) {
			return false
		}
	case x.words != nil:
		w := int(id >> 6)
		if w < len(x.words) {
			if x.words[w]&(1<<(id&63)) != 0 {
				return false
			}
		} else if bitsFit(id, len(s.list)+1) {
			x.words = append(x.words, make([]uint64, w+1-len(x.words))...)
		} else {
			break // the bitset would outgrow the table: rebuild as a table
		}
		s.list = append(s.list, id)
		x.words[w] |= 1 << (id & 63)
		return true
	default:
		slot, found := x.lookup(id)
		if found {
			return false
		}
		if 2*(len(s.list)+1) <= len(x.slots) {
			s.list = append(s.list, id)
			x.slots[slot] = int32(id) + 1
			return true
		}
	}
	// A small set, or an index that no longer fits: append and (re)build.
	s.list = append(s.list, id)
	if len(s.list) > smallSetThreshold {
		if s.idx == nil {
			s.idx = &TermIndex{}
		}
		s.idx.build(s.list)
	}
	return true
}

// Has reports whether id is present.
func (s *TermSet) Has(id TermID) bool {
	if s.idx != nil {
		return s.idx.Has(id)
	}
	return slices.Contains(s.list, id)
}

// Size returns the number of stored entries.
func (s *TermSet) Size() int { return len(s.list) }

// release drops the set's contents.
func (s *TermSet) release() {
	s.list = nil
	s.idx = nil
}

// Check verifies the set's representation: no entry is listed twice, the
// index is present exactly above the threshold, and it holds one slot per
// entry, each entry found at its own position.
func (s *VarSet) Check() error {
	if (s.idx != nil) != (len(s.list) > smallSetThreshold) {
		return fmt.Errorf("index present = %v at size %d", s.idx != nil, len(s.list))
	}
	if s.idx == nil {
		for i, v := range s.list {
			if slices.Index(s.list, v) != i {
				return fmt.Errorf("variable %d listed twice", v)
			}
		}
		return nil
	}
	// One filled slot per entry, each entry at its own position: a
	// repeated entry would find the first one's position.
	filled := 0
	for _, p := range s.idx.slots {
		if p != 0 {
			filled++
		}
	}
	if filled != len(s.list) {
		return fmt.Errorf("%d filled index slots for %d entries", filled, len(s.list))
	}
	for i, v := range s.list {
		if slot, found := s.lookup(v); !found || s.idx.slots[slot] != int32(i+1) {
			return fmt.Errorf("variable %d not indexed at its position", v)
		}
	}
	return nil
}

// Check verifies the set's representation: no id is listed twice, the
// index is present exactly above the threshold, and it answers every
// listed id and holds no other.
func (s *TermSet) Check() error {
	if (s.idx != nil) != (len(s.list) > smallSetThreshold) {
		return fmt.Errorf("index present = %v at size %d", s.idx != nil, len(s.list))
	}
	if s.idx == nil {
		for i, id := range s.list {
			if slices.Index(s.list, id) != i {
				return fmt.Errorf("term %d listed twice", id)
			}
		}
		return nil
	}
	// As many ids indexed as listed, each listed id indexed: a repeated
	// id would leave the index one short.
	n := 0
	if s.idx.words != nil {
		for _, w := range s.idx.words {
			n += bits.OnesCount64(w)
		}
	} else {
		for _, p := range s.idx.slots {
			if p != 0 {
				n++
			}
		}
	}
	if n != len(s.list) {
		return fmt.Errorf("%d ids indexed for %d entries", n, len(s.list))
	}
	for _, id := range s.list {
		if !s.idx.Has(id) {
			return fmt.Errorf("term %d missing from the index", id)
		}
	}
	return nil
}
