// Package graph is the storage layer of the inclusion-constraint solver:
// the variable store, the union-find forwarding structure, the hybrid
// small-set adjacency representation, and the source/sink/variable edge
// sets. It makes no policy decisions — which endpoint stores an edge,
// when cycles are searched for or collapsed, and how least solutions are
// computed all live in the resolution/strategy layer (internal/core) and
// the public façade (the root polce package) built on top of it.
package graph

import "fmt"

// Store owns the variables of one constraint system. Every allocated
// variable has a dense int32 id, handed out in creation order, and its
// storage is one pointer-free node per id: the total-order position, the
// union-find parent, the clean epoch and four small references into the
// tables of non-empty adjacency sets. An empty set is a zero reference and
// costs nothing else, and the garbage collector scans none of it. The
// *Var handles sit in fixed-size pages beside the nodes.
//
// Whole-graph walks scan ids in order and skip forwarded ones, so they
// visit variables in creation order.
//
// A Store is not safe for concurrent use; the solver façade serialises
// access.
type Store struct {
	nodes []node           // dense id → storage
	pages []*[pageSize]Var // dense id → handle, pageSize handles a page

	// created maps creation indices to the dense id handed out. It stays
	// nil, with creation index and dense id equal, until the oracle
	// hands out its first alias.
	created    []int32
	numCreated int
	live       int // unforwarded ids

	// The adjacency set tables. A node's reference is a table index plus
	// one. A released set's slot is cleared and listed for reuse.
	varSets   []VarSet
	termSets  []TermSet
	freeVars  []int32
	freeTerms []int32

	terms   []*Term          // term table: TermID → term
	termIDs map[*Term]TermID // inverse of terms

	mergeEpoch uint32 // bumped on every collapse; drives lazy compaction
}

// node is one variable's storage.
type node struct {
	order  uint64   // position in the random total order o(·)
	parent int32    // union-find parent; the node's own id when representative
	clean  uint32   // merge epoch at which the variable sets were last compacted
	sets   [4]int32 // adjacency set references, indexed by VarAdj and TermAdj
}

const (
	pageBits = 6
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// VarAdj names a variable's variable-adjacency set.
type VarAdj uint8

// TermAdj names a variable's term-adjacency set.
type TermAdj uint8

const (
	// PredV holds variable predecessors (inductive form only).
	PredV VarAdj = 0
	// SuccV holds variable successors.
	SuccV VarAdj = 2
	// PredS holds source predecessors c(...) ⊆ X.
	PredS TermAdj = 1
	// SuccK holds sink successors X ⊆ c(...).
	SuccK TermAdj = 3
)

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

// Fresh allocates a variable with the next dense id and creation index and
// the given total-order position.
func (st *Store) Fresh(name string, order uint64) *Var {
	id := int32(len(st.nodes))
	st.nodes = append(st.nodes, node{order: order, parent: id})
	if id&pageMask == 0 {
		st.pages = append(st.pages, new([pageSize]Var))
	}
	v := st.Handle(id)
	*v = Var{name: name, st: st, id: id, created: int32(st.numCreated)}
	if st.created != nil {
		st.created = append(st.created, id)
	}
	st.numCreated++
	st.live++
	return v
}

// AddAlias records an existing variable as the one handed out for the next
// creation index without allocating. The oracle policy uses this to
// pre-merge a fresh variable into its predicted cycle witness.
func (st *Store) AddAlias(v *Var) {
	if st.created == nil {
		st.created = make([]int32, st.numCreated, st.numCreated+1)
		for i := range st.created {
			st.created[i] = int32(i)
		}
	}
	st.created = append(st.created, v.id)
	st.numCreated++
}

// NumCreated returns the number of creation indices handed out (the
// creation-index space, shared across oracle-aligned runs).
func (st *Store) NumCreated() int { return st.numCreated }

// CreatedVar returns the variable handed out for creation index i.
func (st *Store) CreatedVar(i int) *Var {
	if st.created == nil {
		return st.Handle(int32(i))
	}
	return st.Handle(st.created[i])
}

// NumIDs returns the number of dense ids allocated: ids run from 0 to
// NumIDs()-1.
func (st *Store) NumIDs() int { return len(st.nodes) }

// Handle returns the canonical handle of id.
func (st *Store) Handle(id int32) *Var { return &st.pages[id>>pageBits][id&pageMask] }

// Before reports whether a precedes b in the total order o(·). Random
// 64-bit orders collide with negligible probability, but the dense id
// breaks ties so the order is always total; ids follow creation order, so
// a tie breaks as creation indices would.
func (st *Store) Before(a, b int32) bool {
	if oa, ob := st.nodes[a].order, st.nodes[b].order; oa != ob {
		return oa < ob
	}
	return a < b
}

// Forwarded reports whether id has been merged into another variable.
func (st *Store) Forwarded(id int32) bool { return st.nodes[id].parent != id }

// Find follows forwarding parents to id's representative, compressing the
// path as it goes.
func (st *Store) Find(id int32) int32 {
	n := st.nodes
	root := n[id].parent
	if root == id {
		return id
	}
	for n[root].parent != root {
		root = n[root].parent
	}
	for id != root {
		next := n[id].parent
		n[id].parent = root
		id = next
	}
	return root
}

// Forward merges a into w: a forwards to w under Find and stops counting
// as live. The caller re-inserts a's edges onto w through the resolution
// engine (they carry closure obligations the store cannot discharge).
func (st *Store) Forward(a, w int32) {
	st.nodes[a].parent = w
	st.live--
}

// BumpMergeEpoch starts a new merge epoch. Clean canonicalises each
// variable's adjacency at most once per epoch, so the engine bumps it
// once per collapse. When the counter wraps, every variable is marked for
// compaction again.
func (st *Store) BumpMergeEpoch() {
	st.mergeEpoch++
	if st.mergeEpoch == 0 {
		for i := range st.nodes {
			st.nodes[i].clean = 0
		}
		st.mergeEpoch = 1
	}
}

// ResetVar returns id to its freshly-created state: adjacency released
// and forwarding removed. The retraction engine calls it for every
// variable in a dirty cone before replaying the surviving constraints; a
// variable it un-forwards is live again.
func (st *Store) ResetVar(id int32) {
	if st.Forwarded(id) {
		st.live++
	}
	st.Release(id)
	st.nodes[id].parent = id
	st.nodes[id].clean = 0
}

// NumLive returns the number of canonical (non-eliminated) variables in
// O(1): the length CanonicalVars would return.
func (st *Store) NumLive() int { return st.live }

// Vars returns id's variable set a in insertion order. The slice aliases
// the set's own storage: callers must not mutate it, and must not hold it
// across an AddVar, TakeVars, Release or Clean of the same variable.
// Entries may be stale aliases until Clean canonicalises them.
func (st *Store) Vars(id int32, a VarAdj) []int32 {
	if r := st.nodes[id].sets[a]; r != 0 {
		return st.varSets[r-1].list
	}
	return nil
}

// HasVar reports whether x is listed in id's set a (under the exact id;
// callers canonicalise first).
func (st *Store) HasVar(id int32, a VarAdj, x int32) bool {
	if r := st.nodes[id].sets[a]; r != 0 {
		return st.varSets[r-1].Has(x)
	}
	return false
}

// AddVar inserts x into id's set a and reports whether it was new.
func (st *Store) AddVar(id int32, a VarAdj, x int32) bool {
	r := st.nodes[id].sets[a]
	if r == 0 {
		r = st.newVarSet()
		st.nodes[id].sets[a] = r
	}
	return st.varSets[r-1].Add(x)
}

// TakeVars removes and returns id's set a, releasing its slot. Used when
// a collapsed variable's edges are re-inserted onto the witness.
func (st *Store) TakeVars(id int32, a VarAdj) []int32 {
	r := st.nodes[id].sets[a]
	if r == 0 {
		return nil
	}
	l := st.varSets[r-1].Take()
	st.releaseVarSet(id, a)
	return l
}

// TermIDs returns id's term set a in insertion order. The slice aliases
// the set's own storage: callers must not mutate it, and must not hold it
// across an AddTerm or Release of the same variable.
func (st *Store) TermIDs(id int32, a TermAdj) []TermID {
	if r := st.nodes[id].sets[a]; r != 0 {
		return st.termSets[r-1].list
	}
	return nil
}

// HasTerm reports whether t is in id's term set a.
func (st *Store) HasTerm(id int32, a TermAdj, t TermID) bool {
	if r := st.nodes[id].sets[a]; r != 0 {
		return st.termSets[r-1].Has(t)
	}
	return false
}

// AddTerm inserts t into id's term set a and reports whether it was new.
func (st *Store) AddTerm(id int32, a TermAdj, t TermID) bool {
	r := st.nodes[id].sets[a]
	if r == 0 {
		if n := len(st.freeTerms); n > 0 {
			r = st.freeTerms[n-1]
			st.freeTerms = st.freeTerms[:n-1]
		} else {
			st.termSets = append(st.termSets, TermSet{})
			r = int32(len(st.termSets))
		}
		st.nodes[id].sets[a] = r
	}
	return st.termSets[r-1].Add(t)
}

// newVarSet takes a free variable-set slot, or appends one, and returns
// its reference.
func (st *Store) newVarSet() int32 {
	if n := len(st.freeVars); n > 0 {
		r := st.freeVars[n-1]
		st.freeVars = st.freeVars[:n-1]
		return r
	}
	st.varSets = append(st.varSets, VarSet{})
	return int32(len(st.varSets))
}

// releaseVarSet clears id's set a and lists its slot for reuse.
func (st *Store) releaseVarSet(id int32, a VarAdj) {
	r := st.nodes[id].sets[a]
	st.varSets[r-1].release()
	st.freeVars = append(st.freeVars, r)
	st.nodes[id].sets[a] = 0
}

// Release drops all four of id's adjacency sets. The engine calls it for
// collapsed variables once no pending worklist entry can reference their
// term sets, and for reset variables.
func (st *Store) Release(id int32) {
	for _, a := range [...]VarAdj{PredV, SuccV} {
		if st.nodes[id].sets[a] != 0 {
			st.releaseVarSet(id, a)
		}
	}
	for _, a := range [...]TermAdj{PredS, SuccK} {
		if r := st.nodes[id].sets[a]; r != 0 {
			st.termSets[r-1].release()
			st.freeTerms = append(st.freeTerms, r)
			st.nodes[id].sets[a] = 0
		}
	}
}

// Clean lazily canonicalises id's variable adjacency after collapses: at
// most once per merge epoch, every entry is replaced by its
// representative, dropping duplicates and self-edges. A set that
// compacts to nothing is released.
func (st *Store) Clean(id int32) {
	n := &st.nodes[id]
	if n.clean == st.mergeEpoch {
		return
	}
	n.clean = st.mergeEpoch
	if r := n.sets[PredV]; r != 0 && len(st.varSets[r-1].Compact(st, id)) == 0 {
		st.releaseVarSet(id, PredV)
	}
	if r := n.sets[SuccV]; r != 0 && len(st.varSets[r-1].Compact(st, id)) == 0 {
		st.releaseVarSet(id, SuccV)
	}
}

// CanonicalVars returns the canonical (non-eliminated) variables in
// creation order.
func (st *Store) CanonicalVars() []*Var {
	out := make([]*Var, 0, st.live)
	for id := range st.nodes {
		if id := int32(id); !st.Forwarded(id) {
			out = append(out, st.Handle(id))
		}
	}
	return out
}

// EdgeCounts tallies the distinct edges in the current graph: variable →
// variable edges (counted once regardless of orientation), source edges
// c(...) ⊆ X and sink edges X ⊆ c(...). Stale aliases left by collapses
// are canonicalised before counting.
func (st *Store) EdgeCounts() (varVar, source, sink int) {
	for id := range st.nodes {
		id := int32(id)
		if st.Forwarded(id) {
			continue
		}
		st.Clean(id)
		varVar += len(st.Vars(id, PredV)) + len(st.Vars(id, SuccV))
		source += len(st.TermIDs(id, PredS))
		sink += len(st.TermIDs(id, SuccK))
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
		st.Clean(v.id)
		for _, w := range st.Vars(v.id, SuccV) {
			if j, ok := index[st.Handle(st.Find(w))]; ok {
				adj[i] = append(adj[i], j)
			}
		}
		for _, p := range st.Vars(v.id, PredV) {
			if j, ok := index[st.Handle(st.Find(p))]; ok {
				adj[j] = append(adj[j], i)
			}
		}
	}
	return adj, index
}

// Check verifies the store's own invariants: every forwarding chain is
// acyclic and ends at an unforwarded variable, NumLive counts exactly the
// unforwarded variables, every creation index maps to an allocated id,
// every set reference names a non-empty set no other reference names,
// every free slot is cleared and unreferenced, and every set's
// representation is sound (see VarSet.Check and TermSet.Check). It reads
// the store without compacting or compressing anything.
func (st *Store) Check() error {
	live := 0
	for id := range st.nodes {
		r := int32(id)
		for steps := 0; st.nodes[r].parent != r; steps++ {
			if steps > len(st.nodes) {
				return fmt.Errorf("forwarding chain from %s does not end", st.Handle(int32(id)))
			}
			r = st.nodes[r].parent
		}
		if r == int32(id) {
			live++
		}
	}
	if live != st.live {
		return fmt.Errorf("NumLive = %d, but %d variables are unforwarded", st.live, live)
	}
	if st.created != nil && len(st.created) != st.numCreated {
		return fmt.Errorf("%d creation indices mapped, %d handed out", len(st.created), st.numCreated)
	}
	for i := 0; i < st.numCreated; i++ {
		if v := st.CreatedVar(i); v.st != st || int(v.id) >= len(st.nodes) {
			return fmt.Errorf("creation index %d maps to no allocated variable", i)
		}
	}
	varRefs := make([]int32, len(st.varSets))
	termRefs := make([]int32, len(st.termSets))
	for id, n := range st.nodes {
		for a, r := range n.sets {
			if r == 0 {
				continue
			}
			var err error
			if a == int(PredV) || a == int(SuccV) {
				varRefs[r-1]++
				s := &st.varSets[r-1]
				if err = s.Check(); err == nil && s.Size() == 0 {
					err = fmt.Errorf("empty set holds a slot")
				}
			} else {
				termRefs[r-1]++
				s := &st.termSets[r-1]
				if err = s.Check(); err == nil && s.Size() == 0 {
					err = fmt.Errorf("empty set holds a slot")
				}
			}
			if err != nil {
				return fmt.Errorf("%s set %d: %w", st.Handle(int32(id)), a, err)
			}
		}
	}
	for _, r := range st.freeVars {
		varRefs[r-1]++
		if s := st.varSets[r-1]; s.list != nil || s.idx != nil {
			return fmt.Errorf("free variable-set slot %d is not cleared", r)
		}
	}
	for _, r := range st.freeTerms {
		termRefs[r-1]++
		if s := st.termSets[r-1]; s.list != nil || s.idx != nil {
			return fmt.Errorf("free term-set slot %d is not cleared", r)
		}
	}
	for r, n := range varRefs {
		if n != 1 {
			return fmt.Errorf("variable-set slot %d is referenced or free %d times", r+1, n)
		}
	}
	for r, n := range termRefs {
		if n != 1 {
			return fmt.Errorf("term-set slot %d is referenced or free %d times", r+1, n)
		}
	}
	return nil
}
