package core

import (
	"sort"

	"polce/internal/core/graph"
)

// This file computes the least solution LS of a closed constraint system.
//
// Under standard form the least solution is explicit: the closure rule has
// already propagated every source forward, so LS(X) is exactly X's source
// predecessor list.
//
// Under inductive form the least solution is recovered by equation (1) of
// the paper:
//
//	LS(Y) = { c(...) | c(...) ⋯→ Y } ∪ ⋃ { LS(X) | X ⋯→ Y }
//
// Every variable predecessor X of Y satisfies o(X) < o(Y), so a pass over
// the variables in increasing order computes LS for every variable; so
// does any order that reaches a variable after its predecessors. As in
// the paper, inductive-form experiment timings always include this pass.
//
// The pass itself is implemented by the engine in lsengine.go: interned
// shared term-sets combined by memoized unions, evaluated in one
// post-order walk of the predecessor DAG, and recomputed incrementally
// for only the dirty cone after an update. The straightforward
// algorithm, which sorts by o(·), is retained below as
// leastSolutionsReference, the oracle the engine is property-tested
// against.

// LSCacheState describes the least-solution cache for introspection
// surfaces: whether a LeastSolution read right now would be answered
// without a pass, and how much interned state the engine holds.
type LSCacheState struct {
	// Hot reports that the cache is valid at the current graph version
	// (standard form is always "hot": the closed graph is the solution).
	Hot bool `json:"hot"`
	// Passes is the number of engine passes run so far.
	Passes int64 `json:"passes"`
	// InternedNodes is the number of hash-consed term-set nodes alive in
	// the engine's intern table; MemoEntries the memoized-union entries.
	// Both are zero under standard form or before the first pass.
	InternedNodes int `json:"interned_nodes"`
	MemoEntries   int `json:"memo_entries"`
	// PendingDirty is the number of variables marked dirty since the last
	// pass — the seed of the next pass's cone. Always zero under standard
	// form, which runs no pass.
	PendingDirty int `json:"pending_dirty"`
}

// LSCacheState reports the least-solution cache's current state.
func (s *System) LSCacheState() LSCacheState {
	st := LSCacheState{
		Hot:          s.opt.Form == SF || (s.lsEngine != nil && s.lsVersion == s.graphVersion),
		Passes:       s.stats.LSPasses,
		PendingDirty: len(s.lsPending),
	}
	if e := s.lsEngine; e != nil {
		st.InternedNodes = len(e.nodes) - 2 // less the no-node and empty-set ids
		st.MemoEntries = len(e.memo)
	}
	return st
}

// ComputeLeastSolutions materialises the least solution for every
// variable. It is a no-op under standard form, where the closed graph is
// already the least solution, and a no-op under inductive form while the
// cache is hot: the cache is keyed on a graph version bumped only by real
// edge insertions and collapses, so redundant constraint re-additions do
// not trigger a pass, and after real updates only the affected cone is
// recomputed.
func (s *System) ComputeLeastSolutions() {
	if s.opt.Form == SF {
		return
	}
	if s.lsEngine != nil && s.lsVersion == s.graphVersion {
		return
	}
	s.runLeastSolutionPass()
}

// LeastSolution returns the source terms in the least solution of v, in
// first-reached order. Under inductive form this triggers (or reuses) the
// least-solution pass and returns the solution node's term view, built on
// the node's first read and shared by every variable and later read of
// that node; under standard form it maps the closed graph's source ids to
// a fresh slice. The returned slice must not be modified.
func (s *System) LeastSolution(v *Var) []*Term {
	id := s.find(v.DenseID())
	if s.opt.Form == SF {
		return s.store.Terms(s.store.TermIDs(id, graph.PredS))
	}
	s.ComputeLeastSolutions()
	if s.ls[id].node == noNode {
		return nil
	}
	n := s.lsEngine.nodes[s.ls[id].node]
	if n.view == nil {
		n.view = s.store.Terms(n.terms)
	}
	return n.view
}

// leastSolutionsReference is the naive least-solution computation the
// engine replaced: one fresh map and slice per variable, every term
// copied, no caching. It is deliberately kept (not exported) as the
// reference implementation for the engine's property tests — the engine
// must produce exactly these slices, order included, for every canonical
// variable.
func (s *System) leastSolutionsReference() map[*Var][]*Term {
	st := &s.store
	if s.opt.Form == SF {
		out := make(map[*Var][]*Term)
		for _, v := range s.CanonicalVars() {
			out[v] = st.Terms(st.TermIDs(v.DenseID(), graph.PredS))
		}
		return out
	}
	vars := s.CanonicalVars()
	sort.Slice(vars, func(i, j int) bool { return st.Before(vars[i].DenseID(), vars[j].DenseID()) })
	ls := make(map[*Var][]*Term, len(vars))
	for _, y := range vars {
		id := y.DenseID()
		st.Clean(id)
		srcs := st.TermIDs(id, graph.PredS)
		set := make(map[*Term]struct{}, len(srcs))
		list := make([]*Term, 0, len(srcs))
		for _, t := range st.Terms(srcs) {
			if _, ok := set[t]; !ok {
				set[t] = struct{}{}
				list = append(list, t)
			}
		}
		for _, x := range st.Vars(id, graph.PredV) {
			for _, t := range ls[st.Handle(st.Find(x))] {
				if _, ok := set[t]; !ok {
					set[t] = struct{}{}
					list = append(list, t)
				}
			}
		}
		ls[y] = list
	}
	return ls
}
