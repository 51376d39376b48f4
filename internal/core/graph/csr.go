package graph

// This file is the flat-memory adjacency backend: a chunked arena that
// owns the element storage of every adjacency set in a store, plus the
// compaction pass that repacks it into CSR layout (each canonical
// variable's edge blocks contiguous, blocks laid out in creation order).
//
// The arena changes *where* adjacency elements live, never what a set
// contains or the order it iterates in: a set still appends in insertion
// order and still promotes to its membership index past the threshold
// (the index holds list positions or term ids, both of which survive a
// repack), so
// closure, cycle detection and every counter are bit-identical to the
// hybrid (per-set Go slice) representation. That invariance is what lets
// the engine select the representation purely by Options and gate it
// with differential tests.
//
// Lifetime rules:
//
//   - Segments are append-only views into arena chunks. A set grows by
//     relocating to a fresh segment of twice the capacity; the old
//     segment's capacity is retired (it becomes garbage until the next
//     compaction).
//   - Compaction rebuilds every live set densely in a fresh chunk
//     sequence and bumps the arena epoch. It must only run at quiescent
//     points — no worklist entry, snapshot or iterator may reference the
//     old storage. The engine compacts at the end of a drain; snapshot
//     layers copy or intern what they capture, so they never alias arena
//     memory (the epoch exists so that invariant is checkable).

// Repr selects the adjacency storage representation of a Store.
type Repr int

const (
	// ReprHybrid is the classic layout: each adjacency set owns a plain
	// Go slice (plus a position index once it outgrows the threshold).
	ReprHybrid Repr = iota
	// ReprCSR backs every adjacency set with chunked arena segments and
	// periodically repacks them into CSR layout. Propagation results are
	// bit-identical to ReprHybrid; only memory layout and cost change.
	ReprCSR
)

// String returns the flag spelling of the representation.
func (r Repr) String() string {
	if r == ReprCSR {
		return "csr"
	}
	return "hybrid"
}

const (
	// arenaChunkCap is the number of elements per arena chunk. Segments
	// never span chunks; a request larger than arenaMaxSegInChunk gets a
	// dedicated chunk of exactly its capacity.
	arenaChunkCap      = 8192
	arenaMaxSegInChunk = arenaChunkCap / 4
	// arenaMinSegCap is the capacity of the first segment a set receives.
	arenaMinSegCap = 4
	// arenaCompactMin and arenaCompactFrac gate compaction: at least
	// arenaCompactMin retired elements, and retired capacity at least
	// 1/arenaCompactFrac of everything handed out.
	arenaCompactMin  = 1 << 14
	arenaCompactFrac = 2
)

// arena is a chunked slab allocator for adjacency segments of one element
// type. It hands out zero-length, fixed-capacity segments carved from
// large chunks; sets append into their segment in place and come back for
// a bigger one when full.
type arena[T comparable] struct {
	chunk []T // current chunk being carved
	used  int // elements of chunk already carved

	chunks  int   // chunks allocated since the last compaction
	handed  int64 // segment capacity handed out since the last compaction
	retired int64 // capacity retired (relocation, collapse) since then

	compactions uint64 // total compactions over the arena's lifetime
	epoch       uint64 // bumped by each compaction
}

// alloc returns an empty segment with the given capacity.
func (a *arena[T]) alloc(capacity int) []T {
	if capacity > arenaMaxSegInChunk {
		a.chunks++
		a.handed += int64(capacity)
		return make([]T, 0, capacity)
	}
	if a.used+capacity > cap(a.chunk) {
		a.chunk = make([]T, arenaChunkCap)
		a.used = 0
		a.chunks++
	}
	seg := a.chunk[a.used : a.used : a.used+capacity]
	a.used += capacity
	a.handed += int64(capacity)
	return seg
}

// grow relocates a full segment to one of twice the capacity, retiring
// the old storage.
func (a *arena[T]) grow(old []T) []T {
	newCap := arenaMinSegCap
	if c := cap(old); c > 0 {
		newCap = 2 * c
	}
	seg := a.alloc(newCap)
	seg = append(seg, old...)
	a.retired += int64(cap(old))
	return seg
}

// retire returns a segment's capacity to the garbage pool (the set no
// longer references it). A nil arena (ReprHybrid) ignores it.
func (a *arena[T]) retire(capacity int) {
	if a != nil {
		a.retired += int64(capacity)
	}
}

// push appends v to a set's list, relocating a full segment when the
// arena backs the list; a nil arena (ReprHybrid) leaves growth to append.
// The element order is identical either way.
func (a *arena[T]) push(list []T, v T) []T {
	if a != nil && len(list) == cap(list) {
		list = a.grow(list)
	}
	return append(list, v)
}

// repack copies a set's list into one fresh segment of a (post-reset)
// arena, keeping every element at its position.
func (a *arena[T]) repack(list []T) []T {
	if len(list) == 0 {
		return nil
	}
	return append(a.alloc(len(list)), list...)
}

// shouldCompact reports whether enough retired capacity has accumulated
// to make a repack worthwhile.
func (a *arena[T]) shouldCompact() bool {
	return a.retired >= arenaCompactMin && a.retired*arenaCompactFrac >= a.handed
}

// reset clears the carving state for a compaction rebuild and opens a new
// epoch. Live segments are re-allocated by the caller afterwards.
func (a *arena[T]) reset() {
	a.chunk = nil
	a.used = 0
	a.chunks = 0
	a.handed = 0
	a.retired = 0
	a.compactions++
	a.epoch++
}

// ArenaStats describes the flat-memory backend of a store: how many edge
// blocks (chunks) are allocated, how much segment capacity is live vs
// retired, and how many compaction epochs have passed. All zero under
// ReprHybrid.
type ArenaStats struct {
	// Chunks is the number of edge-block chunks currently allocated
	// across the variable and term arenas.
	Chunks int `json:"chunks"`
	// HandedOut is the total segment capacity handed out since the last
	// compaction; Retired is how much of it is no longer referenced.
	HandedOut int64 `json:"handed_out"`
	Retired   int64 `json:"retired"`
	// Compactions is the number of CSR repacks run over the store's
	// lifetime; Epoch is the current arena epoch (bumped per repack).
	Compactions uint64 `json:"compactions"`
	Epoch       uint64 `json:"epoch"`
}

// SetRepr selects the adjacency storage representation. It must be called
// before the first Fresh; the representation is fixed for the store's
// lifetime.
func (st *Store) SetRepr(r Repr) {
	if len(st.created) > 0 {
		panic("graph: SetRepr after Fresh")
	}
	st.repr = r
	if r == ReprCSR && st.varArena == nil {
		st.varArena = &arena[*Var]{}
		st.termArena = &arena[TermID]{}
	}
}

// Repr returns the adjacency storage representation in use.
func (st *Store) Repr() Repr { return st.repr }

// attachArenas points a fresh variable's adjacency sets at the store's
// arenas (no-op under ReprHybrid).
func (st *Store) attachArenas(v *Var) {
	if st.repr != ReprCSR {
		return
	}
	v.PredV.ar = st.varArena
	v.SuccV.ar = st.varArena
	v.PredS.ar = st.termArena
	v.SuccK.ar = st.termArena
}

// ReleaseStorage detaches v's adjacency sets and retires their arena
// capacity. The engine calls it for collapsed variables once no pending
// worklist entry can reference their term sets.
func (v *Var) ReleaseStorage() {
	v.PredV.release()
	v.PredS.release()
	v.SuccV.release()
	v.SuccK.release()
}

// MaybeCompactArenas runs a CSR repack when enough retired capacity has
// accumulated. The caller must be at a quiescent point: an empty
// worklist and no live iteration over any adjacency list.
func (st *Store) MaybeCompactArenas() bool {
	if st.repr != ReprCSR {
		return false
	}
	if !st.varArena.shouldCompact() && !st.termArena.shouldCompact() {
		return false
	}
	st.CompactArenas()
	return true
}

// CompactArenas repacks every live adjacency set densely into fresh
// chunks, in creation order of the canonical variables — the CSR layout:
// each variable's four edge blocks contiguous, blocks of consecutive
// variables adjacent. Forwarded variables' leftover storage is released
// first so no old chunk stays pinned. Bumps the arena epoch.
func (st *Store) CompactArenas() {
	if st.repr != ReprCSR {
		return
	}
	st.mergeQueued()
	for _, v := range st.vars {
		if v.parent != nil {
			v.ReleaseStorage()
		}
	}
	st.compactLive()
	st.varArena.reset()
	st.termArena.reset()
	for _, v := range st.vars {
		if v.parent != nil {
			continue
		}
		v.PredV.repack(st.varArena)
		v.SuccV.repack(st.varArena)
		v.PredS.repack(st.termArena)
		v.SuccK.repack(st.termArena)
	}
}

// ArenaStats reports the combined state of the store's arenas.
func (st *Store) ArenaStats() ArenaStats {
	if st.repr != ReprCSR {
		return ArenaStats{}
	}
	return ArenaStats{
		Chunks:      st.varArena.chunks + st.termArena.chunks,
		HandedOut:   st.varArena.handed + st.termArena.handed,
		Retired:     st.varArena.retired + st.termArena.retired,
		Compactions: st.varArena.compactions + st.termArena.compactions,
		Epoch:       st.varArena.epoch,
	}
}
