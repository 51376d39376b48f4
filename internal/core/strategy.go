package core

// This file holds the cycle policies that act outside an edge insertion,
// as System code guarded by Options.Cycles: the oracle's pre-merge at
// variable creation and the periodic offline sweep between worklist
// steps. The online chain search, which runs inside an insertion, is in
// cycle.go. NewSystem normalises Options.Form and Options.Cycles once, so
// every policy site compares against a known value.

// oracleWitness returns the variable to hand out for creation index idx
// under CycleOracle: the canonical witness of the strongly connected
// component the oracle maps idx into, when that component began at an
// earlier index, and nil when idx must be allocated.
func (s *System) oracleWitness(idx int) *Var {
	if w := s.opt.Oracle.witnessOf(idx); w >= 0 && w < idx {
		return find(s.store.CreatedVar(w))
	}
	return nil
}

// sweepIfDue runs one offline elimination pass under CyclePeriodic when
// the interval has elapsed: Tarjan over the current variable-variable
// graph, collapsing every non-trivial component. It runs between worklist
// steps, when no adjacency iteration is in flight.
func (s *System) sweepIfDue() {
	if s.stats.Work-s.lastSweep < s.sweepInterval {
		return
	}
	s.lastSweep = s.stats.Work
	visited, collapsed := s.collapseSCCGroups()
	s.stats.PeriodicSweeps++
	s.stats.SweepVisits += int64(visited)
	s.emit(Event{Kind: EventSweep, Collapsed: collapsed})
}
