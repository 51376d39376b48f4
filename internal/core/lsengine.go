package core

import (
	"slices"
	"time"

	"polce/internal/core/graph"
)

// This file is the least-solution engine for inductive form. The naive
// algorithm in leastsol.go materialises every LS(Y) from scratch into a
// fresh map; on closed graphs most least solutions are unions of a few
// predecessor sets, so that pass copies the same suffixes over and over.
// The engine replaces it with two cooperating pieces, both driven by one
// post-order walk of the predecessor DAG, which settles every variable
// after its predecessors:
//
//  1. Shared interned term-sets. A least solution is an immutable lsNode
//     holding a deduplicated list of term ids in first-reached order.
//     Nodes are hash-consed (equal content → same node) and combined by a
//     memoized union, so LS(Y) = leaf(Y) ∪ ⋃ LS(X) reuses its inputs'
//     storage: a variable whose solution equals a predecessor's shares the
//     node outright, and a repeated (a, b) union is a map hit. A node maps
//     its ids to terms once, on its first read, so every reader of a
//     shared node shares that view too.
//
//  2. Dirty-cone incremental recomputation. The solver bumps a graph
//     version only on mutations that can change a least solution (new
//     source edge, new predecessor edge, collapse) and marks the affected
//     variable; redundant re-additions keep the cache hot. A pass then
//     recomputes only the marked variables and their downstream cone —
//     a variable is stale exactly when it was marked or one of its
//     predecessors is stale, and the walk settles predecessors first —
//     and every other variable keeps its cached node.
//
// Because nodes are hash-consed, the union memo's keys are content pairs:
// which unions a pass computes, and so every engine counter, does not
// depend on the order the cone is evaluated in. Any order that settles a
// variable after its predecessors computes Eq. 1, the paper's ascending
// o(·) order among them; the walk needs no sort and allocates nothing
// once its stack has grown.

// lsIndexThreshold is the node size above which membership tests build a
// lazily-cached hash index instead of scanning the term list.
const lsIndexThreshold = 16

// lsNode is one interned, immutable least-solution term-set. terms is
// deduplicated and in first-reached order (own sources first, then each
// predecessor's contribution in stored edge order — the exact order the
// naive pass produces). Nodes must never be mutated after interning,
// except to fill view.
type lsNode struct {
	terms []graph.TermID

	index *graph.TermIndex // built on the first membership probe; larger nodes only

	// view is terms mapped through the store's term table, built by the
	// first LeastSolution read of the node.
	view []*Term
}

// has reports whether t is in the node's term set.
func (n *lsNode) has(t graph.TermID) bool {
	if len(n.terms) <= lsIndexThreshold {
		for _, u := range n.terms {
			if u == t {
				return true
			}
		}
		return false
	}
	if n.index == nil {
		n.index = graph.NewTermIndex(n.terms)
	}
	return n.index.Has(t)
}

// lsSlot is the engine's per-variable state: the variable's solution node
// (noNode until a pass evaluates it), its level in the predecessor DAG as
// of the last pass, and whether it is listed as dirty for the next pass.
type lsSlot struct {
	node    int32
	level   int32
	pending bool
}

// Node ids index lsEngine.nodes. Id 0 is no node and id 1 the empty set.
const (
	noNode    int32 = 0
	emptyNode int32 = 1
)

// lsEngine holds the hash-cons table and union memo shared by every pass
// of one System. It persists across incremental passes — the memo is what
// makes re-unions of unchanged suffixes free. Nodes are named by dense
// ids, so the per-variable slots, the intern table and the memo hold no
// pointers.
type lsEngine struct {
	nodes    []*lsNode
	next     []int32          // per node id: the next node in its hash bucket
	interned map[uint64]int32 // content hash → first node of its bucket (equality-checked)
	memo     map[uint64]int32 // operand id pair (see pairKey) → union node

	stack []lsFrame // scratch: the pass's walk stack, kept across passes

	hits   int64 // union memo hits
	misses int64 // union memo misses (union actually computed)
	work   int64 // terms materialised into newly interned nodes
}

func newLSEngine() *lsEngine {
	return &lsEngine{
		nodes:    []*lsNode{nil, {}},
		next:     []int32{noNode, noNode},
		interned: make(map[uint64]int32),
		memo:     make(map[uint64]int32),
	}
}

// pairKey keys the union memo by both operand ids. Operands are interned
// nodes, so id identity is content identity.
func pairKey(a, b int32) uint64 { return uint64(a)<<32 | uint64(uint32(b)) }

// hashTerms is FNV-1a over the term ids. Equal sequences hash equal;
// collisions are resolved by comparing the lists in intern.
func hashTerms(ts []graph.TermID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, t := range ts {
		x := uint32(t)
		for i := 0; i < 4; i++ {
			h ^= uint64(x & 0xff)
			h *= prime64
			x >>= 8
		}
	}
	return h
}

// intern returns the canonical node id for terms, creating a node if the
// exact sequence has not been seen. When copyOnCreate is set the slice is
// cloned before a node is built around it — callers pass it for lists
// that alias mutable storage (a PredS list grows in place between
// passes); lookups never need the copy, which keeps warm passes
// allocation-free.
func (e *lsEngine) intern(terms []graph.TermID, copyOnCreate bool) int32 {
	if len(terms) == 0 {
		return emptyNode
	}
	h := hashTerms(terms)
	head, ok := e.interned[h]
	if ok {
		for id := head; id != noNode; id = e.next[id] {
			if slices.Equal(e.nodes[id].terms, terms) {
				return id
			}
		}
	}
	if copyOnCreate {
		terms = slices.Clone(terms)
	}
	id := int32(len(e.nodes))
	e.nodes = append(e.nodes, &lsNode{terms: terms})
	e.next = append(e.next, head) // head is noNode when the bucket is new
	e.interned[h] = id
	e.work += int64(len(terms))
	return id
}

// leaf interns a variable's own source predecessors.
func (e *lsEngine) leaf(terms []graph.TermID) int32 {
	return e.intern(terms, true)
}

// union returns the node for a.terms ++ (b.terms \ a), memoized on the
// operand pair. When b adds nothing the result is a itself — no copy, no
// new node — which is the common case on closed graphs.
func (e *lsEngine) union(a, b int32) int32 {
	na, nb := e.nodes[a], e.nodes[b]
	if a == b || len(nb.terms) == 0 {
		return a
	}
	if len(na.terms) == 0 {
		return b
	}
	key := pairKey(a, b)
	if r, ok := e.memo[key]; ok {
		e.hits++
		return r
	}
	e.misses++
	var out []graph.TermID
	for _, t := range nb.terms {
		if !na.has(t) {
			if out == nil {
				out = make([]graph.TermID, len(na.terms), len(na.terms)+len(nb.terms))
				copy(out, na.terms)
			}
			out = append(out, t)
		}
	}
	r := a // b ⊆ a: share a's node
	if out != nil {
		r = e.intern(out, false)
	}
	e.memo[key] = r
	return r
}

// evalVar computes y's least-solution node from its (already cleaned,
// hence canonical) adjacency. The walk settles every variable predecessor
// before y, so each one's node is already up to date.
func (s *System) evalVar(e *lsEngine, y int32) int32 {
	n := e.leaf(s.store.TermIDs(y, graph.PredS))
	for _, x := range s.store.Vars(y, graph.PredV) {
		n = e.union(n, s.ls[x].node)
	}
	return n
}

// lsFrame is one variable on the walk's explicit stack; next indexes the
// first predecessor the walk has not yet checked.
type lsFrame struct {
	v    int32
	next int32
}

// runLeastSolutionPass brings every canonical variable's solution node up
// to date with the current graph version. See the file comment for the
// design. Callers have checked Form == IF and staleness.
func (s *System) runLeastSolutionPass() {
	start := time.Now()
	full := s.lsEngine == nil
	if full {
		s.lsEngine = newLSEngine()
	}
	e := s.lsEngine
	hits0, misses0 := e.hits, e.misses

	// Post-order walk over PredV from each live variable in id order.
	// A variable is canonicalised when the walk reaches it and settled
	// once its predecessors are: its level in the predecessor DAG is
	// 1 + the highest predecessor level (reported as ls_levels), and it
	// is in the cone when it has no node yet, was marked by a mutation,
	// or has a predecessor in the cone; a cone member is re-evaluated.
	// Every stored predecessor strictly precedes its variable in o(·), so
	// the walk meets no cycle and its stack is at most levels deep. The
	// walk state lives in the per-id marks: below reached means not yet
	// reached this pass, and inCone marks a settled cone member.
	st := &s.store
	reached := s.nextMarks(2)
	inCone := reached + 1
	marks, ls := s.marks, s.ls
	var maxLevel int32
	cone := 0
	stack := e.stack[:0]
	for root := range int32(st.NumIDs()) {
		if st.Forwarded(root) || marks[root] >= reached {
			continue
		}
		st.Clean(root)
		marks[root] = reached
		stack = append(stack, lsFrame{v: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			preds := st.Vars(f.v, graph.PredV)
			for int(f.next) < len(preds) && marks[preds[f.next]] >= reached {
				f.next++
			}
			if int(f.next) < len(preds) {
				x := preds[f.next]
				st.Clean(x)
				marks[x] = reached
				stack = append(stack, lsFrame{v: x})
				continue
			}
			y := f.v
			stack = stack[:len(stack)-1]
			lv := int32(0)
			rec := full || ls[y].node == noNode || ls[y].pending
			for _, x := range preds {
				if ls[x].level >= lv {
					lv = ls[x].level + 1
				}
				if marks[x] == inCone {
					rec = true
				}
			}
			ls[y].level = lv
			maxLevel = max(maxLevel, lv)
			if rec {
				marks[y] = inCone
				cone++
				ls[y].node = s.evalVar(e, y)
			}
		}
	}
	e.stack = stack
	levels := int(maxLevel) + 1

	for _, v := range s.lsPending {
		ls[v].pending = false
	}
	s.lsPending = s.lsPending[:0]
	s.lsVersion = s.graphVersion

	s.stats.LSPasses++
	s.stats.LSConeVars += int64(cone)
	s.stats.LSLevels = int64(levels)
	s.stats.LSUnionHits = e.hits
	s.stats.LSUnionMisses = e.misses
	s.stats.LSWork = e.work

	if s.opt.Metrics != nil {
		s.opt.Metrics.LeastSolutionDone(LSPass{
			Duration:    time.Since(start),
			Levels:      levels,
			ConeVars:    cone,
			TotalVars:   st.NumLive(),
			UnionHits:   e.hits - hits0,
			UnionMisses: e.misses - misses0,
		})
	}
}

// markLS records that y's least solution may have changed: a real edge
// mutation bumps the graph version (invalidating the version-keyed cache)
// and, under inductive form, seeds y into the next pass's dirty cone.
// Standard form runs no pass to drain that list, so it lists nothing; its
// snapshot caches and the drain-order fingerprint still key on the
// version. Redundant edge additions never reach this, which is what keeps
// the cache hot under re-adds.
func (s *System) markLS(y int32) {
	s.graphVersion++
	if s.opt.Form != SF && !s.ls[y].pending {
		s.ls[y].pending = true
		s.lsPending = append(s.lsPending, y)
	}
}
