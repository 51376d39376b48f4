// Package graph is the storage layer of the inclusion-constraint solver:
// the variable store, the union-find forwarding structure, the hybrid
// small-set adjacency representation, and the source/sink/variable edge
// sets. It makes no policy decisions — which endpoint stores an edge,
// when cycles are searched for or collapsed, and how least solutions are
// computed all live in the resolution/strategy layer (internal/core) and
// the public façade (the root polce package) built on top of it.
package graph

import (
	"cmp"
	"slices"
)

// Store owns the variables of one constraint system: the live list walked
// by whole-graph operations, the creation-index space shared with the
// oracle, the term table, and the merge epoch that drives lazy adjacency
// canonicalisation after collapses.
//
// A Store is not safe for concurrent use; the solver façade serialises
// access.
type Store struct {
	vars    []*Var // live variables in creation order, lazily compacted
	queued  []*Var // reset variables compaction had dropped from vars, by id
	dead    int    // eliminated variables still present in vars or queued
	created []*Var // creation-index → variable handed out (aliases included)

	terms   []*Term          // term table: TermID → term
	termIDs map[*Term]TermID // inverse of terms

	mergeEpoch uint64 // bumped on every collapse; drives lazy compaction
}

// TermID is a term's dense id in one store's term table. Term sets hold
// ids rather than pointers, so the garbage collector never scans them and
// a membership probe needs no pointer load. The same *Term gets an
// independent id in each store that names it.
type TermID int32

// Intern returns t's id, assigning the next dense id the first time the
// store sees t. Ids are never reused or dropped, retraction included.
func (st *Store) Intern(t *Term) TermID {
	if id, ok := st.termIDs[t]; ok {
		return id
	}
	if st.termIDs == nil {
		st.termIDs = make(map[*Term]TermID)
	}
	id := TermID(len(st.terms))
	st.terms = append(st.terms, t)
	st.termIDs[t] = id
	return id
}

// Term returns the term interned under id.
func (st *Store) Term(id TermID) *Term { return st.terms[id] }

// Terms maps ids to their terms in a fresh slice (nil when ids is empty).
func (st *Store) Terms(ids []TermID) []*Term {
	if len(ids) == 0 {
		return nil
	}
	out := make([]*Term, len(ids))
	for i, id := range ids {
		out[i] = st.terms[id]
	}
	return out
}

// Fresh allocates a variable with the next creation index and the given
// total-order position, and registers it as live.
func (st *Store) Fresh(name string, order uint64) *Var {
	v := NewVar(name, len(st.created), order)
	st.created = append(st.created, v)
	st.vars = append(st.vars, v)
	return v
}

// AddAlias records an existing variable as the one handed out for the next
// creation index without allocating. The oracle policy uses this to
// pre-merge a fresh variable into its predicted cycle witness.
func (st *Store) AddAlias(v *Var) {
	st.created = append(st.created, v)
}

// NumCreated returns the number of creation indices handed out (the
// creation-index space, shared across oracle-aligned runs).
func (st *Store) NumCreated() int { return len(st.created) }

// CreatedVar returns the variable handed out for creation index i.
func (st *Store) CreatedVar(i int) *Var { return st.created[i] }

// Forward merges a into w: a forwards to w under Find and is counted dead
// for lazy live-list compaction. The caller re-inserts a's edges onto w
// through the resolution engine (they carry closure obligations the store
// cannot discharge).
func (st *Store) Forward(a, w *Var) {
	a.parent = w
	st.dead++
}

// BumpMergeEpoch starts a new merge epoch. Clean canonicalises each
// variable's adjacency at most once per epoch, so the engine bumps it
// once per collapse.
func (st *Store) BumpMergeEpoch() { st.mergeEpoch++ }

// ResetVar returns v to its freshly-created state: adjacency cleared,
// forwarding pointer removed, search mark and least-solution slot zeroed.
// Only the slot's Pending mark survives: it records that the engine
// already lists v for its next pass, and the list outlives the reset.
// The retraction engine calls it for every variable in a dirty cone
// before replaying the surviving constraints. A variable it un-forwards
// is live again: one still listed stops counting as dead, and one that
// compaction already dropped is queued for the next whole-graph walk to
// merge back in creation order.
func (st *Store) ResetVar(v *Var) {
	if v.parent != nil {
		st.relist(v)
	}
	v.ReleaseStorage()
	v.parent = nil
	v.Mark = 0
	v.cleanEpoch = 0
	v.Sol = SolSlot{Pending: v.Sol.Pending}
}

// relist accounts for the forwarded variable v becoming live again.
func (st *Store) relist(v *Var) {
	if _, listed := slices.BinarySearchFunc(st.vars, v, byID); listed {
		st.dead--
		return
	}
	i, queued := slices.BinarySearchFunc(st.queued, v, byID)
	if queued {
		st.dead--
		return
	}
	st.queued = slices.Insert(st.queued, i, v)
}

func byID(a, b *Var) int { return cmp.Compare(a.id, b.id) }

// mergeQueued merges the queued variables back into the live list, in
// creation order, filling it from the back so nothing is allocated beyond
// the list's growth.
func (st *Store) mergeQueued() {
	q := st.queued
	if len(q) == 0 {
		return
	}
	i, j := len(st.vars)-1, len(q)-1
	st.vars = slices.Grow(st.vars, len(q))[:len(st.vars)+len(q)]
	for k := len(st.vars) - 1; j >= 0; k-- {
		if i >= 0 && st.vars[i].id > q[j].id {
			st.vars[k] = st.vars[i]
			i--
		} else {
			st.vars[k] = q[j]
			j--
		}
	}
	clear(q)
	st.queued = q[:0]
}

// NumLive returns the number of canonical (non-eliminated) variables in
// O(1): the length CanonicalVars would return.
func (st *Store) NumLive() int { return len(st.vars) + len(st.queued) - st.dead }

// Clean lazily canonicalises v's variable adjacency after collapses.
func (st *Store) Clean(v *Var) {
	if v.cleanEpoch == st.mergeEpoch {
		return
	}
	v.cleanEpoch = st.mergeEpoch
	v.PredV.Compact(v)
	v.SuccV.Compact(v)
}

// compactLive merges queued variables back into st.vars and drops
// eliminated ones once a quarter of the list is dead, so whole-graph walks
// cost O(live), not O(ever created). Compaction preserves creation order
// and is amortised O(1) per elimination. Every whole-graph walk starts
// here; callers must not be mid-iteration over st.vars.
func (st *Store) compactLive() {
	st.mergeQueued()
	if st.dead == 0 || st.dead < len(st.vars)/4 {
		return
	}
	out := st.vars[:0]
	for _, v := range st.vars {
		if v.parent == nil {
			out = append(out, v)
		}
	}
	st.vars = out
	st.dead = 0
}

// Live returns the live list after compaction, in creation order,
// without copying it: every canonical variable appears once, and
// forwarded entries that compaction has not yet dropped remain, for the
// caller to skip. The slice is the store's own; the caller must not
// modify it, nor keep it past the next Fresh or whole-graph walk.
func (st *Store) Live() []*Var {
	st.compactLive()
	return st.vars
}

// CanonicalVars returns the canonical (non-eliminated) variables in
// creation order.
func (st *Store) CanonicalVars() []*Var {
	st.compactLive()
	out := make([]*Var, 0, len(st.vars)-st.dead)
	for _, v := range st.vars {
		if v.parent == nil {
			out = append(out, v)
		}
	}
	return out
}

// EdgeCounts tallies the distinct edges in the current graph: variable →
// variable edges (counted once regardless of orientation), source edges
// c(...) ⊆ X and sink edges X ⊆ c(...). Stale aliases left by collapses
// are canonicalised before counting.
func (st *Store) EdgeCounts() (varVar, source, sink int) {
	st.compactLive()
	for _, v := range st.vars {
		if v.parent != nil {
			continue
		}
		st.Clean(v)
		varVar += v.PredV.Size() + v.SuccV.Size()
		source += v.PredS.Size()
		sink += v.SuccK.Size()
	}
	return varVar, source, sink
}

// VarAdjacency builds, over the canonical variables vars, the directed
// inclusion adjacency: an edge u → w meaning u ⊆ w, combining successor
// edges (stored at u) and predecessor edges (stored at w). The returned
// index maps each canonical variable to its position in vars.
func (st *Store) VarAdjacency(vars []*Var) (adj [][]int, index map[*Var]int) {
	index = make(map[*Var]int, len(vars))
	for i, v := range vars {
		index[v] = i
	}
	adj = make([][]int, len(vars))
	for i, v := range vars {
		st.Clean(v)
		for _, w := range v.SuccV.List() {
			if j, ok := index[Find(w)]; ok {
				adj[i] = append(adj[i], j)
			}
		}
		for _, p := range v.PredV.List() {
			if j, ok := index[Find(p)]; ok {
				adj[j] = append(adj[j], i)
			}
		}
	}
	return adj, index
}
