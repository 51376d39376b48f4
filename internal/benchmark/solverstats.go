package benchmark

import (
	"polce"
	"polce/internal/telemetry"
)

// sumStats adds the cumulative counters of st to acc; LSLevels, a
// last-pass value rather than a counter, keeps the larger of the two.
func sumStats(acc *polce.Stats, st polce.Stats) {
	acc.VarsCreated += st.VarsCreated
	acc.VarsEliminated += st.VarsEliminated
	acc.Work += st.Work
	acc.Redundant += st.Redundant
	acc.CycleSearches += st.CycleSearches
	acc.CycleVisits += st.CycleVisits
	acc.CyclesFound += st.CyclesFound
	acc.LSWork += st.LSWork
	acc.LSConeVars += st.LSConeVars
	acc.LSUnionHits += st.LSUnionHits
	acc.LSUnionMisses += st.LSUnionMisses
	acc.Retractions += st.Retractions
	acc.RetractConeVars += st.RetractConeVars
	acc.RetractReplayed += st.RetractReplayed
	acc.LSLevels = max(acc.LSLevels, st.LSLevels)
}

// statsDelta returns the counters accumulated between two reads of one
// solver's Stats; LSLevels is the later read's.
func statsDelta(later, earlier polce.Stats) polce.Stats {
	neg := polce.Stats{
		VarsCreated: -earlier.VarsCreated, VarsEliminated: -earlier.VarsEliminated,
		Work: -earlier.Work, Redundant: -earlier.Redundant,
		CycleSearches: -earlier.CycleSearches, CycleVisits: -earlier.CycleVisits, CyclesFound: -earlier.CyclesFound,
		LSWork: -earlier.LSWork, LSConeVars: -earlier.LSConeVars,
		LSUnionHits: -earlier.LSUnionHits, LSUnionMisses: -earlier.LSUnionMisses,
		Retractions: -earlier.Retractions, RetractConeVars: -earlier.RetractConeVars, RetractReplayed: -earlier.RetractReplayed,
	}
	sumStats(&neg, later)
	neg.LSLevels = later.LSLevels
	return neg
}

// setStatsLayers records the core counters of d — summed or accumulated
// over n ops — as per-op values and ratios, and the search-depth p90 from
// the sink's histogram.
func setStatsLayers(ph *phase, sink *telemetry.SolverMetrics, d polce.Stats, n float64) {
	ph.setLayer("core.work", float64(d.Work)/n)
	ph.setLayer("core.redundant_frac", ratio(float64(d.Redundant), float64(d.Work)))
	ph.setLayer("core.searches", float64(d.CycleSearches)/n)
	ph.setLayer("core.visits_per_search", ratio(float64(d.CycleVisits), float64(d.CycleSearches)))
	ph.setLayer("core.cycle_hit_frac", ratio(float64(d.CyclesFound), float64(d.CycleSearches)))
	ph.setLayer("core.search_depth_p90", sink.SearchDepth.Quantile(0.9))
	ph.setLayer("core.eliminated", float64(d.VarsEliminated)/n)
	ph.setLayer("core.ls_work", float64(d.LSWork)/n)
	ph.setLayer("core.ls_cone_vars", float64(d.LSConeVars)/n)
	ph.setLayer("core.ls_levels", float64(d.LSLevels))
	ph.setLayer("core.ls_union_hit_rate", ratio(float64(d.LSUnionHits), float64(d.LSUnionHits+d.LSUnionMisses)))
	ph.setLayer("core.retract_cone_vars", ratio(float64(d.RetractConeVars), float64(d.Retractions)))
	ph.setLayer("core.retract_replayed", ratio(float64(d.RetractReplayed), float64(d.Retractions)))
}

// setSolverLayers records setStatsLayers for one long-lived solver plus the
// size of the graph it ended with.
func setSolverLayers(ph *phase, s *polce.Solver, sink *telemetry.SolverMetrics, d polce.Stats, n float64) {
	setStatsLayers(ph, sink, d, n)
	ph.setLayer("core.edges", float64(s.TotalEdges()))
	ph.setLayer("graph.live_vars", float64(s.CurrentGraphStats().Vars))
	ph.setLayer("graph.vars_created", float64(s.Stats().VarsCreated))
	ph.setLayer("graph.worklist_hwm", float64(s.StorageStats().WorklistHWM))
}
