package core

import (
	"container/heap"
	"sort"
)

// This file is the offline vertex-elimination closure mode: a
// preprocessing pass in the style of Rankooh–Rintanen's vertex-elimination
// encoding of reachability. Vertices of the (collapsed) inclusion graph
// are eliminated one at a time; eliminating v adds a shortcut edge p → s
// for every live predecessor p and successor s of v. In the resulting
// *filled* graph every original path x →* y is witnessed by an up-down
// path: ascending elimination positions from x to a peak, then descending
// to y (take any path and repeatedly shortcut its earliest-eliminated
// interior vertex — its neighbors on the path are eliminated later, so
// the shortcut exists). Reachability — and hence the least solution —
// then needs only two linear sweeps over the filled graph instead of a
// per-query graph walk:
//
//	ascending sweep:   D(u)  = own(u) ∪ ⋃ D(p)   over filled p → u with
//	                   earlier-eliminated p (sources that reach u going up)
//	descending sweep:  LS(y) = D(y) ∪ ⋃ LS(m)    over filled m → y with
//	                   later-eliminated m (fold each peak's D down to y)
//
// The sweeps are the closure-side counterpart of the LS engine's
// level-scheduled passes; under VEOrderTotal the elimination order is the
// ascending total order o(·) itself, so the ascending sweep visits
// variables in exactly the order the LS engine's o(·)-levelled DAG sweep
// does. VEOrderMinDegree instead eliminates a minimum-degree vertex each
// step (lazy priority queue), which keeps fill low on sparse graphs.
//
// A VEClosure is closed-world: it is built from a drained system at
// snapshot time and answers queries immutably afterwards; constraints
// added later are not reflected (check Version against System.Version).

// VEOrder selects the elimination order of a vertex-elimination closure.
type VEOrder int

const (
	// VEOrderMinDegree eliminates a minimum-degree vertex each step,
	// breaking ties by the total order o(·). This is the classic
	// fill-reducing heuristic and the default.
	VEOrderMinDegree VEOrder = iota
	// VEOrderTotal eliminates in ascending total order o(·) — the same
	// order the LS engine's levelled sweep uses, so the ascending sweep
	// is exactly a sequential replay of those levels.
	VEOrderTotal
)

// String names the order for flags and reports.
func (o VEOrder) String() string {
	if o == VEOrderTotal {
		return "total"
	}
	return "mindegree"
}

// VEStats describes the shape of a built vertex-elimination closure.
type VEStats struct {
	// Vars is the number of canonical variables eliminated.
	Vars int `json:"vars"`
	// Edges is the number of distinct original inclusion edges.
	Edges int `json:"edges"`
	// Fill is the number of shortcut edges elimination added.
	Fill int `json:"fill"`
	// Terms is the total number of term entries materialised across all
	// least solutions (the closure's output size).
	Terms int64 `json:"terms"`
}

// VEClosure is a materialised closed-world least-solution table computed
// by vertex elimination. It is immutable after Build and safe for
// concurrent readers.
type VEClosure struct {
	order   VEOrder
	version uint64
	index   map[*Var]int
	ls      [][]*Term // per canonical variable, sorted by Term.Seq
	stats   VEStats
}

// BuildVEClosure eliminates the current canonical inclusion graph in the
// given order and materialises every variable's least solution. The
// system must be drained (it always is between AddConstraint calls); the
// result reflects the graph as of System.Version() at the time of the
// call.
func (s *System) BuildVEClosure(ord VEOrder) *VEClosure {
	vars := s.CanonicalVars()
	n := len(vars)
	c := &VEClosure{
		order:   ord,
		version: s.Version(),
		index:   make(map[*Var]int, n),
		ls:      make([][]*Term, n),
	}
	c.stats.Vars = n
	for i, v := range vars {
		c.index[v] = i
	}
	if n == 0 {
		return c
	}

	// Dynamic adjacency for the elimination game. VarAdjacency yields each
	// stored edge once, but fill insertion needs O(1) membership, so both
	// directions are kept as index sets.
	adj, _ := s.store.VarAdjacency(vars)
	preds := make([]map[int32]struct{}, n)
	succs := make([]map[int32]struct{}, n)
	for i := range preds {
		preds[i] = make(map[int32]struct{})
		succs[i] = make(map[int32]struct{})
	}
	for u, ws := range adj {
		for _, w := range ws {
			if u == w {
				continue
			}
			if _, dup := succs[u][int32(w)]; dup {
				continue
			}
			succs[u][int32(w)] = struct{}{}
			preds[w][int32(u)] = struct{}{}
			c.stats.Edges++
		}
	}

	// Eliminate every vertex, recording at each one its live predecessors
	// and successors at elimination time — the filled edges toward
	// later-eliminated vertices, which are exactly what the two sweeps
	// consume.
	elimSeq := make([]int32, 0, n) // elimination order, as var indices
	upPreds := make([][]int32, n)  // filled p → u with u eliminated first
	upSuccs := make([][]int32, n)  // filled u → s with u eliminated first
	eliminate := func(u int32) {
		up := sortedKeys(preds[u])
		us := sortedKeys(succs[u])
		upPreds[u] = up
		upSuccs[u] = us
		for _, p := range up {
			delete(succs[p], u)
		}
		for _, w := range us {
			delete(preds[w], u)
		}
		for _, p := range up {
			for _, w := range us {
				if p == w {
					continue
				}
				if _, ok := succs[p][w]; ok {
					continue
				}
				succs[p][w] = struct{}{}
				preds[w][p] = struct{}{}
				c.stats.Fill++
			}
		}
		elimSeq = append(elimSeq, u)
	}

	if ord == VEOrderTotal {
		byOrder := make([]int32, n)
		for i := range byOrder {
			byOrder[i] = int32(i)
		}
		sort.Slice(byOrder, func(a, b int) bool {
			return before(vars[byOrder[a]], vars[byOrder[b]])
		})
		for _, u := range byOrder {
			eliminate(u)
		}
	} else {
		// Lazy min-degree queue (snippet-style): entries carry the degree
		// they were pushed with; stale entries are re-pushed on pop.
		q := make(veQueue, 0, n)
		for i := 0; i < n; i++ {
			q = append(q, veItem{deg: len(preds[i]) + len(succs[i]), order: vars[i].Order(), id: vars[i].ID(), idx: int32(i)})
		}
		heap.Init(&q)
		done := make([]bool, n)
		for q.Len() > 0 {
			it := heap.Pop(&q).(veItem)
			if done[it.idx] {
				continue
			}
			if d := len(preds[it.idx]) + len(succs[it.idx]); d != it.deg {
				it.deg = d
				heap.Push(&q, it)
				continue
			}
			done[it.idx] = true
			eliminate(it.idx)
		}
	}

	// Ascending sweep: push each vertex's D set to its later-eliminated
	// filled successors. D(u) collects every source term that reaches u
	// along a chain of strictly ascending elimination positions.
	d := make([][]*Term, n)
	pending := make([][][]*Term, n) // contributions received so far
	for _, u := range elimSeq {
		own := s.store.Terms(vars[u].PredS.List())
		d[u] = mergeTermSets(own, pending[u])
		pending[u] = nil
		for _, w := range upSuccs[u] {
			pending[w] = append(pending[w], d[u])
		}
	}

	// Descending sweep: fold each peak's D down. LS(y) = D(y) joined with
	// the LS of every later-eliminated filled predecessor.
	for i := n - 1; i >= 0; i-- {
		u := elimSeq[i]
		var contrib [][]*Term
		for _, m := range upPreds[u] {
			contrib = append(contrib, c.ls[m])
		}
		c.ls[u] = mergeTermSets(d[u], contrib)
		c.stats.Terms += int64(len(c.ls[u]))
	}
	return c
}

// sortedKeys returns a set's indices in ascending order (map iteration is
// randomised; the closure's recorded fill lists must be deterministic).
func sortedKeys(m map[int32]struct{}) []int32 {
	if len(m) == 0 {
		return nil
	}
	out := make([]int32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// mergeTermSets unions a base term list with already-deduplicated
// contribution sets, returning a slice sorted by Term.Seq. Single-source
// nodes alias their input — the common case on chain-shaped graphs — so
// shared suffixes are stored once.
func mergeTermSets(base []*Term, contrib [][]*Term) []*Term {
	nonEmpty := contrib[:0:0]
	for _, c := range contrib {
		if len(c) > 0 {
			nonEmpty = append(nonEmpty, c)
		}
	}
	if len(base) == 0 && len(nonEmpty) == 1 {
		return nonEmpty[0]
	}
	if len(base) == 0 && len(nonEmpty) == 0 {
		return nil
	}
	total := len(base)
	for _, c := range nonEmpty {
		total += len(c)
	}
	out := make([]*Term, 0, total)
	out = append(out, base...)
	for _, c := range nonEmpty {
		out = append(out, c...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq() < out[b].Seq() })
	// Dedup in place (sorted by unique sequence numbers).
	w := 0
	for i, t := range out {
		if i > 0 && t == out[i-1] {
			continue
		}
		out[w] = t
		w++
	}
	return out[:w]
}

// Order returns the elimination order the closure was built with.
func (c *VEClosure) Order() VEOrder { return c.order }

// Version returns the graph version the closure was built at; compare
// against System.Version (or Solver.Version) to detect staleness.
func (c *VEClosure) Version() uint64 { return c.version }

// Stats returns the closure's shape counters.
func (c *VEClosure) Stats() VEStats { return c.stats }

// LeastSolution returns the source terms of v's least solution, sorted by
// term sequence number (not first-reached order — compare against the
// online engine as sets). The slice is owned by the closure and must not
// be modified. Variables unknown to the closure (created after it was
// built) yield nil.
func (c *VEClosure) LeastSolution(v *Var) []*Term {
	i, ok := c.index[find(v)]
	if !ok {
		return nil
	}
	return c.ls[i]
}

// veItem is one lazy min-degree queue entry.
type veItem struct {
	deg   int
	order uint64
	id    int
	idx   int32
}

// veQueue is a min-heap of veItems ordered by (degree, o(·), id) so pops
// are deterministic.
type veQueue []veItem

func (q veQueue) Len() int { return len(q) }
func (q veQueue) Less(a, b int) bool {
	if q[a].deg != q[b].deg {
		return q[a].deg < q[b].deg
	}
	if q[a].order != q[b].order {
		return q[a].order < q[b].order
	}
	return q[a].id < q[b].id
}
func (q veQueue) Swap(a, b int) { q[a], q[b] = q[b], q[a] }
func (q *veQueue) Push(x any)   { *q = append(*q, x.(veItem)) }
func (q *veQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
