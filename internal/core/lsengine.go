package core

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"polce/internal/core/graph"
)

// This file is the least-solution engine for inductive form. The naive
// algorithm in leastsol.go materialises every LS(Y) from scratch into a
// fresh map; on closed graphs most least solutions are unions of a few
// predecessor sets, so that pass copies the same suffixes over and over.
// The engine replaces it with three cooperating pieces:
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
//  2. Level-parallel evaluation. Predecessor edges strictly decrease in
//     the order o(·), so the predecessor graph is a DAG and level(Y) =
//     1 + max level of Y's variable predecessors partitions the
//     variables into antichains. Each level is evaluated across a worker
//     pool (Options.LSWorkers, default GOMAXPROCS) with a barrier between
//     levels; every worker writes only its own variables' nodes, so the
//     pass is race-free and its results are bit-identical to the
//     sequential pass at any worker count.
//
//  3. Dirty-cone incremental recomputation. The solver bumps a graph
//     version only on mutations that can change a least solution (new
//     source edge, new predecessor edge, collapse) and marks the affected
//     variable; redundant re-additions keep the cache hot. A pass then
//     recomputes only the marked variables and their downstream cone —
//     computed in the same ascending sweep that assigns levels, since a
//     variable is stale exactly when one of its predecessors is — and
//     every other variable keeps its cached node.

// lsIndexThreshold is the node size above which membership tests build a
// lazily-cached hash index instead of scanning the term list.
const lsIndexThreshold = 16

// lsParallelThreshold is the minimum number of cone variables on one
// level before the level is fanned across workers; smaller levels are
// evaluated inline to avoid goroutine overhead.
const lsParallelThreshold = 32

// lsNode is one interned, immutable least-solution term-set. terms is
// deduplicated and in first-reached order (own sources first, then each
// predecessor's contribution in stored edge order — the exact order the
// naive pass produces). Nodes must never be mutated after interning,
// except to fill view.
type lsNode struct {
	hash  uint64
	terms []graph.TermID

	once  sync.Once        // builds index on first large membership probe
	index *graph.TermIndex // nil until built; larger nodes only

	// view is terms mapped through the store's term table, built by the
	// first LeastSolution read of the node (under the caller's exclusive
	// access to the System; the parallel pass never reads it).
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
	n.once.Do(func() { n.index = graph.NewTermIndex(n.terms) })
	return n.index.Has(t)
}

// lsPair keys the union memo by the identity of both operands. Operands
// are interned nodes, so pointer identity is content identity.
type lsPair struct{ a, b *lsNode }

// lsEngine holds the hash-cons table and union memo shared by every pass
// of one System. It persists across incremental passes — the memo is what
// makes re-unions of unchanged suffixes free.
type lsEngine struct {
	mu       sync.Mutex           // guards interned and memo during parallel levels
	interned map[uint64][]*lsNode // content hash → nodes (bucketed, equality-checked)
	memo     map[lsPair]*lsNode

	empty *lsNode

	// Counters are atomics because level workers update them concurrently.
	hits   atomic.Int64 // union memo hits
	misses atomic.Int64 // union memo misses (union actually computed)
	work   atomic.Int64 // terms materialised into newly interned nodes
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
	e.mu.Lock()
	for _, n := range e.interned[h] {
		if slices.Equal(n.terms, terms) {
			e.mu.Unlock()
			return n
		}
	}
	if copyOnCreate {
		terms = slices.Clone(terms)
	}
	n := &lsNode{hash: h, terms: terms}
	e.interned[h] = append(e.interned[h], n)
	e.mu.Unlock()
	e.work.Add(int64(len(terms)))
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
	e.mu.Lock()
	r, ok := e.memo[key]
	e.mu.Unlock()
	if ok {
		e.hits.Add(1)
		return r
	}
	e.misses.Add(1)
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
	if out == nil {
		r = a // b ⊆ a: share a's node
	} else {
		r = e.intern(out, false)
	}
	e.mu.Lock()
	e.memo[key] = r
	e.mu.Unlock()
	return r
}

// lsNodeOf reads the engine node parked in v's storage-layer Sol slot
// (nil when no pass has evaluated v yet).
func lsNodeOf(v *Var) *lsNode {
	n, _ := v.Sol.Node.(*lsNode)
	return n
}

// evalVar computes y's least-solution node from its (already cleaned,
// hence canonical) adjacency. Every variable predecessor sits on a lower
// level, so its node was published before this level's barrier opened.
func (e *lsEngine) evalVar(y *Var) *lsNode {
	n := e.leaf(y.PredS.List())
	for _, x := range y.PredV.List() {
		n = e.union(n, lsNodeOf(x))
	}
	return n
}

// ResolveLSWorkers resolves an Options.LSWorkers setting to the effective
// pool size (<= 0 → GOMAXPROCS), for callers that want to report it.
func ResolveLSWorkers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// lsWorkers resolves the configured worker count (<= 0 → GOMAXPROCS).
func (s *System) lsWorkers() int {
	return ResolveLSWorkers(s.opt.LSWorkers)
}

// runLeastSolutionPass brings every canonical variable's lsNode up to
// date with the current graph version. See the file comment for the
// three-part design. Callers have checked Form == IF and staleness.
func (s *System) runLeastSolutionPass() {
	start := time.Now()
	full := s.lsEngine == nil
	if full {
		s.lsEngine = newLSEngine()
	}
	e := s.lsEngine
	hits0, misses0 := e.hits.Load(), e.misses.Load()

	vars := s.CanonicalVars()
	sort.Slice(vars, func(i, j int) bool { return before(vars[i], vars[j]) })

	// Ascending sweep: canonicalise adjacency, assign topological levels
	// over the predecessor DAG, and mark the dirty cone. A variable is in
	// the cone when it has no node yet, was marked by a mutation, or has a
	// predecessor in the cone; predecessors strictly precede in o(·), so
	// one pass settles both level and cone membership. Sweep positions
	// live in Var.Sol.Idx so pred lookups cost an indexed load, not a map
	// probe.
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
		}
	}

	buckets := make([][]int, maxLevel+1)
	for i := range vars {
		if inCone[i] {
			buckets[level[i]] = append(buckets[level[i]], i)
		}
	}

	workers := s.lsWorkers()
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		if workers <= 1 || len(b) < lsParallelThreshold {
			for _, i := range b {
				vars[i].Sol.Node = e.evalVar(vars[i])
			}
			continue
		}
		// One chunk per worker; each worker writes only its own
		// variables' nodes, and the WaitGroup barrier publishes them to
		// the next level's readers.
		n := workers
		if n > len(b) {
			n = len(b)
		}
		chunk := (len(b) + n - 1) / n
		var wg sync.WaitGroup
		for lo := 0; lo < len(b); lo += chunk {
			hi := lo + chunk
			if hi > len(b) {
				hi = len(b)
			}
			wg.Add(1)
			go func(part []int) {
				defer wg.Done()
				for _, i := range part {
					vars[i].Sol.Node = e.evalVar(vars[i])
				}
			}(b[lo:hi])
		}
		wg.Wait()
	}

	for _, v := range s.lsPending {
		v.Sol.Pending = false
	}
	s.lsPending = s.lsPending[:0]
	s.lsVersion = s.graphVersion

	s.stats.LSPasses++
	s.stats.LSConeVars += int64(cone)
	s.stats.LSLevels = int64(len(buckets))
	s.stats.LSUnionHits = e.hits.Load()
	s.stats.LSUnionMisses = e.misses.Load()
	s.stats.LSWork = e.work.Load()

	if s.opt.Metrics != nil {
		s.opt.Metrics.LeastSolutionDone(LSPass{
			Duration:    time.Since(start),
			Levels:      len(buckets),
			ConeVars:    cone,
			TotalVars:   len(vars),
			UnionHits:   e.hits.Load() - hits0,
			UnionMisses: e.misses.Load() - misses0,
			Workers:     workers,
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
