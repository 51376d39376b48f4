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
	hash  uint64
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

// lsPair keys the union memo by the identity of both operands. Operands
// are interned nodes, so pointer identity is content identity.
type lsPair struct{ a, b *lsNode }

// lsEngine holds the hash-cons table and union memo shared by every pass
// of one System. It persists across incremental passes — the memo is what
// makes re-unions of unchanged suffixes free.
type lsEngine struct {
	interned map[uint64][]*lsNode // content hash → nodes (bucketed, equality-checked)
	memo     map[lsPair]*lsNode

	empty *lsNode

	stack []lsFrame // scratch: the pass's walk stack, kept across passes

	hits   int64 // union memo hits
	misses int64 // union memo misses (union actually computed)
	work   int64 // terms materialised into newly interned nodes
}

func newLSEngine() *lsEngine {
	e := &lsEngine{
		interned: make(map[uint64][]*lsNode),
		memo:     make(map[lsPair]*lsNode),
	}
	e.empty = &lsNode{hash: 0}
	return e
}

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

// intern returns the canonical node for terms, creating one if the exact
// sequence has not been seen. When copyOnCreate is set the slice is
// cloned before a node is built around it — callers pass it for lists
// that alias mutable storage (predS.list grows in place between passes);
// lookups never need the copy, which keeps warm passes allocation-free.
func (e *lsEngine) intern(terms []graph.TermID, copyOnCreate bool) *lsNode {
	if len(terms) == 0 {
		return e.empty
	}
	h := hashTerms(terms)
	for _, n := range e.interned[h] {
		if slices.Equal(n.terms, terms) {
			return n
		}
	}
	if copyOnCreate {
		terms = slices.Clone(terms)
	}
	n := &lsNode{hash: h, terms: terms}
	e.interned[h] = append(e.interned[h], n)
	e.work += int64(len(terms))
	return n
}

// leaf interns a variable's own source predecessors.
func (e *lsEngine) leaf(terms []graph.TermID) *lsNode {
	return e.intern(terms, true)
}

// union returns the node for a.terms ++ (b.terms \ a), memoized on the
// operand pair. When b adds nothing the result is a itself — no copy, no
// new node — which is the common case on closed graphs.
func (e *lsEngine) union(a, b *lsNode) *lsNode {
	if a == b || len(b.terms) == 0 {
		return a
	}
	if len(a.terms) == 0 {
		return b
	}
	key := lsPair{a, b}
	if r, ok := e.memo[key]; ok {
		e.hits++
		return r
	}
	e.misses++
	var out []graph.TermID
	for _, t := range b.terms {
		if !a.has(t) {
			if out == nil {
				out = make([]graph.TermID, len(a.terms), len(a.terms)+len(b.terms))
				copy(out, a.terms)
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

// lsNodeOf reads the engine node parked in v's storage-layer Sol slot
// (nil when no pass has evaluated v yet).
func lsNodeOf(v *Var) *lsNode {
	n, _ := v.Sol.Node.(*lsNode)
	return n
}

// evalVar computes y's least-solution node from its (already cleaned,
// hence canonical) adjacency. The walk settles every variable predecessor
// before y, so each one's node is already up to date.
func (e *lsEngine) evalVar(y *Var) *lsNode {
	n := e.leaf(y.PredS.List())
	for _, x := range y.PredV.List() {
		n = e.union(n, lsNodeOf(x))
	}
	return n
}

// lsFrame is one variable on the walk's explicit stack; next indexes the
// first predecessor the walk has not yet checked.
type lsFrame struct {
	v    *Var
	next int
}

// runLeastSolutionPass brings every canonical variable's lsNode up to
// date with the current graph version. See the file comment for the
// design. Callers have checked Form == IF and staleness.
func (s *System) runLeastSolutionPass() {
	start := time.Now()
	full := s.lsEngine == nil
	if full {
		s.lsEngine = newLSEngine()
	}
	e := s.lsEngine
	hits0, misses0 := e.hits, e.misses

	// Post-order walk over PredV from each live variable in store order.
	// A variable is canonicalised when the walk reaches it and settled
	// once its predecessors are: its level in the predecessor DAG is
	// 1 + the highest predecessor level (reported as ls_levels), and it
	// is in the cone when it has no node yet, was marked by a mutation,
	// or has a predecessor in the cone; a cone member is re-evaluated.
	// Every stored predecessor strictly precedes its variable in o(·), so
	// the walk meets no cycle and its stack is at most levels deep. The
	// walk state lives in Var.Mark: below reached means not yet reached
	// this pass, and inCone marks a settled cone member.
	reached := s.nextMarks(2)
	inCone := reached + 1
	var maxLevel int32
	cone := 0
	stack := e.stack[:0]
	for _, root := range s.store.Live() {
		if root.Forwarded() || root.Mark >= reached {
			continue
		}
		s.store.Clean(root)
		root.Mark = reached
		stack = append(stack, lsFrame{v: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			preds := f.v.PredV.List()
			for f.next < len(preds) && preds[f.next].Mark >= reached {
				f.next++
			}
			if f.next < len(preds) {
				x := preds[f.next]
				s.store.Clean(x)
				x.Mark = reached
				stack = append(stack, lsFrame{v: x})
				continue
			}
			y := f.v
			stack = stack[:len(stack)-1]
			lv := int32(0)
			rec := full || y.Sol.Node == nil || y.Sol.Pending
			for _, x := range preds {
				if x.Sol.Level >= lv {
					lv = x.Sol.Level + 1
				}
				if x.Mark == inCone {
					rec = true
				}
			}
			y.Sol.Level = lv
			maxLevel = max(maxLevel, lv)
			if rec {
				y.Mark = inCone
				cone++
				y.Sol.Node = e.evalVar(y)
			}
		}
	}
	e.stack = stack
	levels := int(maxLevel) + 1

	for _, v := range s.lsPending {
		v.Sol.Pending = false
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
			TotalVars:   s.store.NumLive(),
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
func (s *System) markLS(y *Var) {
	s.graphVersion++
	if s.opt.Form != SF && !y.Sol.Pending {
		y.Sol.Pending = true
		s.lsPending = append(s.lsPending, y)
	}
}
