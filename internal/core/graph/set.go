package graph

// Threshold is the size at which a hybrid adjacency set promotes from a
// plain linear-scanned slice to slice + position index. Most variables in
// real constraint graphs have only a handful of edges (the closed graphs
// sit near density k ≈ 2, see the paper's Section 5), so staying below the
// threshold avoids an index allocation per adjacency set — up to four per
// variable.
const smallSetThreshold = 8

// setElem is an element of a SmallSet: a pointer compared by identity
// that also carries a 32-bit hash key (a variable's creation index, a
// term's creation sequence). Keys need not be unique; the index only uses
// them to pick where a probe starts.
type setElem interface {
	comparable
	key() uint32
}

// SmallSet is an insertion-ordered hybrid set. The slice preserves
// insertion order so that graph closure — and therefore cycle detection,
// which is sensitive to the order in which edges appear — is deterministic
// for a deterministic client. Membership is answered by scanning the slice
// while the set is small; once it outgrows the threshold a position index
// is built and kept in sync.
type SmallSet[T setElem] struct {
	list []T
	idx  *posIndex // nil while len(list) <= smallSetThreshold
	ar   *arena[T] // nil under ReprHybrid; owns list's storage otherwise
}

// posIndex is an open-addressed hash index into a set's list: each slot
// holds a list position plus one, 0 marking an empty slot. The table size
// is a power of two kept at load ≤ ½, probes are linear from a Fibonacci
// hash of the element's key, and a probe compares the element stored at
// the slot's list position, never the key, so colliding keys stay exact.
// Slots hold no pointers, so the garbage collector never scans them, and
// positions survive any move of the list's storage (CSR repack).
type posIndex struct {
	slots []int32
	shift uint32 // 32 - log2(len(slots)): the hash keeps the top bits
}

// fib32 is 2^32 divided by the golden ratio, the Fibonacci hashing
// multiplier.
const fib32 = 0x9E3779B9

// lookup probes for v. It returns v's slot if present, otherwise the
// empty slot where v's position belongs.
func (s *SmallSet[T]) lookup(v T) (slot int, found bool) {
	slots := s.idx.slots
	mask := len(slots) - 1
	i := int((v.key() * fib32) >> s.idx.shift)
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
func (s *SmallSet[T]) reindex() {
	size, shift := 1, uint32(32)
	for size < 2*len(s.list) {
		size *= 2
		shift--
	}
	if s.idx == nil {
		s.idx = &posIndex{}
	}
	s.idx.slots, s.idx.shift = make([]int32, size), shift
	for i, v := range s.list {
		slot, _ := s.lookup(v)
		s.idx.slots[slot] = int32(i + 1)
	}
}

// Add inserts v and reports whether it was new.
func (s *SmallSet[T]) Add(v T) bool {
	if s.idx != nil {
		slot, found := s.lookup(v)
		if found {
			return false
		}
		s.append(v)
		s.idx.slots[slot] = int32(len(s.list))
		if 2*len(s.list) > len(s.idx.slots) {
			s.reindex()
		}
		return true
	}
	for _, w := range s.list {
		if w == v {
			return false
		}
	}
	s.append(v)
	if len(s.list) > smallSetThreshold {
		s.reindex()
	}
	return true
}

// append grows the backing storage through the arena when one is
// attached; the element order and every observable set behavior are
// identical either way.
func (s *SmallSet[T]) append(v T) {
	if s.ar != nil && len(s.list) == cap(s.list) {
		s.list = s.ar.grow(s.list)
	}
	s.list = append(s.list, v)
}

// Has reports whether v is present (under the exact value; callers
// canonicalise variables first).
func (s *SmallSet[T]) Has(v T) bool {
	if s.idx != nil {
		_, found := s.lookup(v)
		return found
	}
	for _, w := range s.list {
		if w == v {
			return true
		}
	}
	return false
}

// Size returns the number of stored entries, including stale aliases.
func (s *SmallSet[T]) Size() int { return len(s.list) }

// List returns the stored entries in insertion order. The slice aliases
// the set's own storage: callers must not mutate it, and must not hold it
// across an Add or Compact.
func (s *SmallSet[T]) List() []T { return s.list }

// Take removes and returns all entries, leaving the set empty. Used when a
// collapsed variable's edges are re-inserted onto the witness.
func (s *SmallSet[T]) Take() []T {
	l := s.list
	s.release()
	return l
}

// release drops the set's contents and retires its arena storage.
func (s *SmallSet[T]) release() {
	if s.ar != nil {
		s.ar.retire(cap(s.list))
	}
	s.list = nil
	s.idx = nil
}

// repack re-allocates the set's elements densely in a (post-reset) arena.
// Positions are unchanged, so the index stays valid.
func (s *SmallSet[T]) repack(a *arena[T]) {
	s.ar = a
	if len(s.list) == 0 {
		s.list = nil
		return
	}
	seg := a.alloc(len(s.list))
	s.list = append(seg, s.list...)
}

// TermIndex is a read-only membership index over an immutable term list,
// for engines that probe large term sets built elsewhere.
type TermIndex struct{ set TermSet }

// NewTermIndex indexes terms, which must hold no duplicates and must not
// change while the index is in use. The index aliases terms.
func NewTermIndex(terms []*Term) *TermIndex {
	x := &TermIndex{set: TermSet{list: terms}}
	x.set.reindex()
	return x
}

// Has reports whether t is one of the indexed terms.
func (x *TermIndex) Has(t *Term) bool { return x.set.Has(t) }

// VarSet is the variable adjacency set. After cycles are collapsed,
// entries may become stale (their variable forwarded to a witness); stale
// entries are canonicalised lazily by Compact.
type VarSet struct {
	SmallSet[*Var]
}

// Compact canonicalises every entry under Find, dropping duplicates and
// any entry equal to self. It returns the canonical slice, which aliases
// the set's own storage. A set with no forwarded entry and no entry equal
// to self is already canonical (Add rejects duplicates) and is returned
// untouched. A set that shrinks back under the threshold demotes to the
// plain-slice representation.
func (s *VarSet) Compact(self *Var) []*Var {
	stale := false
	for _, v := range s.list {
		if v.parent != nil || v == self {
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
			v = Find(v)
			if v == self || sliceHas(out, v) {
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
		v = Find(v)
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

func sliceHas(xs []*Var, v *Var) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// TermSet is the source/sink adjacency set. Terms never become stale, so
// no compaction is needed.
type TermSet = SmallSet[*Term]
