package core

import (
	"slices"
	"sort"
	"time"

	"polce/internal/core/graph"
)

// This file is the least-solution engine for inductive form. The naive
// algorithm in leastsol.go materialises every LS(Y) from scratch into a
// fresh map; on closed graphs most least solutions are unions of a few
// predecessor sets, so that pass copies the same suffixes over and over.
// The engine replaces it with two cooperating pieces, both driven by one
// ascending sweep over the canonical variables in o(·) order:
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
//     a variable is stale exactly when one of its predecessors is, and
//     predecessors strictly precede it in o(·) — and every other
//     variable keeps its cached node.
//
// Because nodes are hash-consed, the union memo's keys are content pairs:
// which unions a pass computes, and so every engine counter, does not
// depend on the order the cone is evaluated in.

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
// hence canonical) adjacency. Every variable predecessor precedes y in
// o(·), so the ascending sweep has already brought its node up to date.
func (e *lsEngine) evalVar(y *Var) *lsNode {
	n := e.leaf(y.PredS.List())
	for _, x := range y.PredV.List() {
		n = e.union(n, lsNodeOf(x))
	}
	return n
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

	vars := s.CanonicalVars()
	sort.Slice(vars, func(i, j int) bool { return before(vars[i], vars[j]) })

	// Ascending sweep: canonicalise adjacency, assign topological levels
	// over the predecessor DAG, mark the dirty cone and re-evaluate it. A
	// variable is in the cone when it has no node yet, was marked by a
	// mutation, or has a predecessor in the cone; predecessors strictly
	// precede in o(·), so one pass settles level, cone membership and the
	// node itself. Sweep positions live in Var.Sol.Idx so pred lookups
	// cost an indexed load, not a map probe.
	for i, v := range vars {
		v.Sol.Idx = int32(i)
	}
	level := make([]int, len(vars))
	inCone := make([]bool, len(vars))
	maxLevel, cone := 0, 0
	for i, y := range vars {
		s.store.Clean(y)
		lv := 0
		rec := full || y.Sol.Node == nil || y.Sol.Pending
		for _, x := range y.PredV.List() {
			j := x.Sol.Idx
			if level[j] >= lv {
				lv = level[j] + 1
			}
			if inCone[j] {
				rec = true
			}
		}
		level[i] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
		if rec {
			inCone[i] = true
			cone++
			y.Sol.Node = e.evalVar(y)
		}
	}
	levels := maxLevel + 1

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
			TotalVars:   len(vars),
			UnionHits:   e.hits - hits0,
			UnionMisses: e.misses - misses0,
		})
	}
}

// markLS records that y's least solution may have changed: a real edge
// mutation bumps the graph version (invalidating the version-keyed cache)
// and seeds y into the next pass's dirty cone. Redundant edge additions
// never reach this, which is what keeps the cache hot under re-adds.
func (s *System) markLS(y *Var) {
	s.graphVersion++
	if !y.Sol.Pending {
		y.Sol.Pending = true
		s.lsPending = append(s.lsPending, y)
	}
}
