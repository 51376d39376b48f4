package core

import "polce/internal/core/graph"

// This file implements the paper's partial online cycle elimination
// (Section 2.5, Figure 3). When a variable-variable edge is about to be
// inserted under an online policy, the solver searches for a chain that
// would close a cycle:
//
//   - inserting a successor edge X → Y (constraint X ⊆ Y): search along
//     predecessor edges starting at X for a predecessor chain Y ⋯→ X;
//   - inserting a predecessor edge X ⋯→ Y: search along successor edges
//     starting at Y for a successor chain Y → ⋯ → X.
//
// The search differs from depth-first search only in that each step must
// move to a variable *smaller* in the total order o(·). Under inductive
// form this restriction is already implied by the representation; under
// standard form (where every variable-variable edge is a successor edge)
// the restriction is what keeps the search cheap — and what makes
// detection partial. The CycleOnlineIncreasing ablation flips the
// restriction for SF, which detects more cycles but visits far more nodes.
//
// The collapse machinery itself (collapse, absorb, the offline Tarjan
// pass) is shared by every policy that finds a cycle, so their accounting
// cannot drift.

// onlineSearch is the paper's partial online elimination. It owns the
// chain-search scratch state (epoch mark, found path, explicit stack);
// the search marks are parked in the System's per-id marks, under an
// epoch drawn from its mark counter.
type onlineSearch struct {
	sys        *System
	increasing bool // SF ablation: search up-order instead of down

	searchEpoch uint32       // current cycle-search mark
	path        []int32      // scratch: nodes on the chain found by the last search
	frames      []chainFrame // scratch: explicit stack for chainSearch
}

// pendingEdge searches for a chain closing a cycle with the pending edge
// x ⊆ y and, if one is found, collapses every variable on the cycle onto
// the lowest-ordered witness. It reports whether a collapse happened (in
// which case the pending edge must not be inserted: it lies inside the
// witness).
func (o *onlineSearch) pendingEdge(x, y int32, asSucc bool) bool {
	s := o.sys
	s.stats.CycleSearches++
	visitsBefore := s.stats.CycleVisits
	o.searchEpoch = s.nextMarks(1)
	o.path = o.path[:0]
	var found bool
	if s.opt.Form == IF {
		if asSucc {
			found = o.predChain(x, y)
		} else {
			found = o.succChain(y, x)
		}
	} else {
		// SF: the pending edge is x → y; a cycle needs a successor chain
		// y → ⋯ → x.
		found = o.succChainSF(y, x, o.increasing)
	}
	if s.opt.Metrics != nil {
		s.opt.Metrics.CycleSearch(int(s.stats.CycleVisits - visitsBefore))
	}
	if !found {
		return false
	}
	s.stats.CyclesFound++
	s.collapse(o.path)
	return true
}

// predChain reports whether a predecessor chain to ⋯→ from exists,
// following only predecessor edges to lower-ordered variables. On success
// o.path holds every variable on the chain, endpoints included.
func (o *onlineSearch) predChain(from, to int32) bool {
	return o.chainSearch(from, to, false, false)
}

// succChain is the successor-edge dual of predChain.
func (o *onlineSearch) succChain(from, to int32) bool {
	return o.chainSearch(from, to, true, false)
}

// succChainSF searches successor chains under standard form. With
// increasing=false each step must decrease in the variable order (the
// paper's cheap partial search); with increasing=true each step must
// increase (the §4 ablation, which finds more cycles at much higher cost).
func (o *onlineSearch) succChainSF(from, to int32, increasing bool) bool {
	return o.chainSearch(from, to, true, increasing)
}

// chainFrame is one node on the explicit chain-search stack; next is the
// adjacency index to resume from.
type chainFrame struct {
	node int32
	next int32
}

// chainSearch is the order-restricted depth-first chain search behind
// predChain, succChain and succChainSF, run on an explicit stack so chain
// depth is bounded by the heap, not the goroutine stack (input graphs can
// hold chains of 10^5+ variables). It preserves the recursive search
// exactly: a node's visit is counted on entry, the to-test precedes the
// visited mark, adjacency is scanned in stored order, and on success
// o.path holds the chain with `to` first and `from` last.
func (o *onlineSearch) chainSearch(from, to int32, succ, increasing bool) bool {
	s := o.sys
	st := &s.store
	marks := s.marks
	s.stats.CycleVisits++
	if from == to {
		o.path = append(o.path, from)
		return true
	}
	marks[from] = o.searchEpoch
	adjSet := graph.PredV
	if succ {
		adjSet = graph.SuccV
	}
	frames := append(o.frames[:0], chainFrame{node: from})
	defer func() { o.frames = frames[:0] }()
	for len(frames) > 0 {
		f := &frames[len(frames)-1]
		cur := f.node
		adj := st.Vars(cur, adjSet)
		descended := false
		for int(f.next) < len(adj) {
			v := st.Find(adj[f.next])
			f.next++
			if v == cur || marks[v] == o.searchEpoch {
				continue
			}
			ok := st.Before(v, cur)
			if increasing {
				ok = st.Before(cur, v)
			}
			if !ok {
				continue
			}
			s.stats.CycleVisits++
			if v == to {
				o.path = append(o.path, to)
				for i := len(frames) - 1; i >= 0; i-- {
					o.path = append(o.path, frames[i].node)
				}
				return true
			}
			marks[v] = o.searchEpoch
			frames = append(frames, chainFrame{node: v})
			descended = true
			break
		}
		if !descended {
			frames = frames[:len(frames)-1]
		}
	}
	return false
}

// collapse merges every variable on a detected cycle into a single witness.
// The witness is the lowest-ordered variable, which preserves the inductive
// form invariant (every surviving edge still points from lower to higher
// order once re-oriented). The absorbed variables' constraints are
// re-inserted through the normal constraint path, so the closure rule fires
// for every new combination and inductive form re-orients inherited edges.
func (s *System) collapse(nodes []int32) {
	witness := s.find(nodes[0])
	for _, v := range nodes[1:] {
		v = s.find(v)
		if s.store.Before(v, witness) {
			witness = v
		}
	}
	s.store.BumpMergeEpoch()
	merged := s.merged[:0]
	for _, v := range nodes {
		if v = s.find(v); v != witness {
			s.absorb(v, witness)
			merged = append(merged, v)
		}
	}
	s.merged = merged
	if len(merged) > 0 {
		if s.retract != nil {
			s.retractCollapse(witness, merged)
		}
		// The witness inherits every absorbed variable's edges (and any
		// dirty mark they carried), so it seeds the recomputation cone;
		// consumers holding a now-forwarded predecessor reach it through
		// the witness when the next pass canonicalises their adjacency.
		s.markLS(witness)
		if s.opt.Metrics != nil {
			vars := make([]*Var, len(merged))
			for i, v := range merged {
				vars[i] = s.store.Handle(v)
			}
			s.emit(Event{Kind: EventCycle, Witness: s.store.Handle(witness), Vars: vars, Collapsed: len(merged)})
		}
	}
}

// absorb forwards a to w and re-inserts a's constraints onto w. The
// term-set re-insertions are pushed as range entries over a's (now
// frozen) sets instead of being taken out: a is forwarded, so every future
// Add canonicalises past it, making its term sets immutable for exactly as
// long as the ranges are pending. The storage is released when the drain
// ends (flushDelta).
func (s *System) absorb(a, w int32) {
	st := &s.store
	st.Forward(a, w)
	s.stats.VarsEliminated++
	s.pushSrcRange(a, opVar, w, len(st.TermIDs(a, graph.PredS)))
	for _, v := range st.TakeVars(a, graph.PredV) {
		s.pushOp(opVar, v, opVar, w) // v ⊆ a becomes v ⊆ w
	}
	for _, v := range st.TakeVars(a, graph.SuccV) {
		s.pushOp(opVar, w, opVar, v) // a ⊆ v becomes w ⊆ v
	}
	s.pushSinkRange(opVar, w, a, len(st.TermIDs(a, graph.SuccK)))
	s.deferredFree = append(s.deferredFree, a)
}

// collapseSCCGroups runs Tarjan over the current variable-variable graph
// and collapses every non-trivial strongly connected component onto its
// witness. It is the shared group-and-collapse core of the periodic
// sweep and CollapseCycles, so their accounting cannot drift.
// It returns the number of variables examined and the number merged away.
func (s *System) collapseSCCGroups() (visited, collapsed int) {
	vars := s.CanonicalVars()
	comp, count, _ := sccStrong(s, vars)
	groups := make(map[int][]int32)
	for i, c := range comp {
		groups[c] = append(groups[c], vars[i].DenseID())
	}
	for c := 0; c < count; c++ {
		if g := groups[c]; len(g) >= 2 {
			s.collapse(g)
			collapsed += len(g) - 1
		}
	}
	return len(vars), collapsed
}

// CollapseCycles runs an offline Tarjan pass over the current
// variable-variable graph and collapses every non-trivial strongly
// connected component. It is exposed for tests and for periodic-offline
// comparison experiments; the online policies never need it.
func (s *System) CollapseCycles() int {
	// Each collapse marks its witness and bumps the graph version, so the
	// least-solution cache is invalidated exactly when something merged —
	// a cycle-free offline pass leaves the cache hot.
	_, collapsed := s.collapseSCCGroups()
	s.drain(false)
	return collapsed
}
