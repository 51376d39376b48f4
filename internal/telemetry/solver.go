package telemetry

import (
	"time"

	"polce/internal/core"
)

// SolverMetrics is the standard core.MetricsSink implementation: it turns
// the solver's per-operation callbacks into distribution-level metrics.
// Where core.Stats collapses the cycle-search cost to a mean
// (VisitsPerSearch), SearchDepth records the empirical distribution behind
// Theorem 5.2; CollapseSize does the same for the sizes of collapsed
// cycles. The edge counters advance once per closure drain.
type SolverMetrics struct {
	// EdgeAttempts counts every attempted edge addition (the paper's
	// Work); RedundantEdges the attempts that found the edge present.
	EdgeAttempts   *Counter
	RedundantEdges *Counter
	// SearchDepth is the per-search nodes-visited distribution.
	SearchDepth *Histogram
	// CollapseSize is the distribution of variables merged per collapse.
	CollapseSize *Histogram
	// Phases accumulates per-phase wall-clock; the solver feeds the
	// closure and least-solution phases, clients add parse and
	// constraint-gen.
	Phases *Timers
	// LSLevels is the topological level count of the predecessor DAG in
	// the most recent least-solution pass; LSCone is the distribution of
	// dirty-cone sizes (variables recomputed per pass).
	LSLevels *Gauge
	LSCone   *Histogram
	// LSUnionHits and LSUnionMisses count the engine's memoized-union
	// lookups; the hit-ratio gauge is derived at exposition time.
	LSUnionHits   *Counter
	LSUnionMisses *Counter
	// Retracts counts RetractBatches calls; RetractCone is the
	// distribution of dirty-cone sizes rolled back per retraction, and
	// RetractConeFrac the cone as a fraction of the canonical variables —
	// the "re-drain only what retraction invalidates" measure.
	Retracts        *Counter
	RetractCone     *Histogram
	RetractConeFrac *Histogram
	RetractReplayed *Counter
}

var _ core.MetricsSink = (*SolverMetrics)(nil)

// NewSolverMetrics registers the standard solver metrics in reg and
// returns the sink to install as core.Options.Metrics. The redundant-edge
// ratio is exposed as a gauge computed at exposition time.
func NewSolverMetrics(reg *Registry) *SolverMetrics {
	m := &SolverMetrics{
		EdgeAttempts:    reg.Counter("polce_edge_attempts_total", "attempted edge additions (the paper's Work), redundant included"),
		RedundantEdges:  reg.Counter("polce_edge_redundant_total", "edge additions that found the edge already present"),
		SearchDepth:     reg.Histogram("polce_cycle_search_depth", "nodes visited per online cycle search (Theorem 5.2's R_X)", LogBuckets(1, 2, 16)),
		CollapseSize:    reg.Histogram("polce_collapse_size", "variables merged away per cycle collapse or sweep", LogBuckets(1, 2, 16)),
		Phases:          reg.Timers("polce_phase", "cumulative wall-clock per solver phase"),
		LSLevels:        reg.Gauge("polce_ls_levels", "topological levels of the predecessor DAG in the last least-solution pass"),
		LSCone:          reg.Histogram("polce_ls_cone_vars", "variables recomputed per least-solution pass (dirty cone size)", LogBuckets(1, 4, 12)),
		LSUnionHits:     reg.Counter("polce_ls_union_hits_total", "least-solution memoized-union lookups answered from the memo"),
		LSUnionMisses:   reg.Counter("polce_ls_union_misses_total", "least-solution memoized-union lookups that computed a union"),
		Retracts:        reg.Counter("polce_retracts_total", "RetractBatches calls"),
		RetractCone:     reg.Histogram("polce_retract_cone_vars", "variables rolled back per retraction (dirty cone size)", LogBuckets(1, 4, 12)),
		RetractConeFrac: reg.Histogram("polce_retract_cone_frac", "retraction dirty cone as a fraction of canonical variables", LinearBuckets(0, 0.1, 11)),
		RetractReplayed: reg.Counter("polce_retract_replayed_total", "surviving constraints replayed during retraction rebuilds"),
	}
	reg.GaugeFunc("polce_redundant_edge_ratio", "fraction of attempted edge additions that were redundant",
		func() float64 {
			w := m.EdgeAttempts.Value()
			if w == 0 {
				return 0
			}
			return float64(m.RedundantEdges.Value()) / float64(w)
		})
	reg.GaugeFunc("polce_ls_union_hit_ratio", "fraction of least-solution union lookups answered from the memo",
		func() float64 {
			h, ms := m.LSUnionHits.Value(), m.LSUnionMisses.Value()
			if h+ms == 0 {
				return 0
			}
			return float64(h) / float64(h+ms)
		})
	return m
}

// Edge implements core.MetricsSink; ClosureDone carries the edge counters.
func (m *SolverMetrics) Edge(core.EventKind, core.Expr, core.Expr, int64) {}

// Event implements core.MetricsSink: each collapse feeds CollapseSize.
func (m *SolverMetrics) Event(ev core.Event) {
	if ev.Kind == core.EventCycle {
		m.CollapseSize.Observe(float64(ev.Collapsed))
	}
}

// CycleSearch implements core.MetricsSink.
func (m *SolverMetrics) CycleSearch(visits int) {
	m.SearchDepth.Observe(float64(visits))
}

// ClosureDone implements core.MetricsSink.
func (m *SolverMetrics) ClosureDone(d time.Duration, work, redundant int64) {
	m.Phases.Add(PhaseClosure, d)
	m.EdgeAttempts.Add(work)
	m.RedundantEdges.Add(redundant)
}

// LeastSolutionDone implements core.MetricsSink.
func (m *SolverMetrics) LeastSolutionDone(p core.LSPass) {
	m.Phases.Add(PhaseLeastSolution, p.Duration)
	m.LSLevels.Set(float64(p.Levels))
	m.LSCone.Observe(float64(p.ConeVars))
	m.LSUnionHits.Add(p.UnionHits)
	m.LSUnionMisses.Add(p.UnionMisses)
}

// RetractDone implements core.MetricsSink.
func (m *SolverMetrics) RetractDone(p core.RetractReport) {
	m.Retracts.Inc()
	m.RetractCone.Observe(float64(p.DirtyVars))
	if p.TotalVars > 0 {
		m.RetractConeFrac.Observe(float64(p.DirtyVars) / float64(p.TotalVars))
	}
	m.RetractReplayed.Add(int64(p.ReplayedConstraints))
	m.Phases.Add(PhaseRetract, p.Duration)
}

// PublishStats registers the final core.Stats counters as gauges named
// polce_stats_*. Call it after solving completes: a System is not safe
// for concurrent use, so live scrapes read the lock-free SolverMetrics
// and the cumulative Stats snapshot is published once at the end.
func PublishStats(reg *Registry, st core.Stats) {
	pub := func(name, help string, v float64) {
		reg.Gauge("polce_stats_"+name, help).Set(v)
	}
	pub("vars_created", "variables allocated", float64(st.VarsCreated))
	pub("vars_eliminated", "variables merged away by cycle elimination", float64(st.VarsEliminated))
	pub("work", "total attempted edge additions", float64(st.Work))
	pub("redundant", "attempted edge additions that were redundant", float64(st.Redundant))
	pub("cycle_searches", "online closing-chain searches", float64(st.CycleSearches))
	pub("cycle_visits", "nodes visited across all searches", float64(st.CycleVisits))
	pub("cycles_found", "searches that found and collapsed a cycle", float64(st.CyclesFound))
	pub("ls_work", "terms materialised by the least-solution engine", float64(st.LSWork))
	pub("ls_passes", "least-solution engine passes run", float64(st.LSPasses))
	pub("ls_cone_vars", "variables recomputed across all least-solution passes", float64(st.LSConeVars))
	pub("ls_levels", "predecessor-DAG levels in the most recent least-solution pass", float64(st.LSLevels))
	pub("ls_union_hit_rate", "fraction of least-solution union lookups answered from the memo", st.LSUnionHitRate())
	pub("periodic_sweeps", "offline elimination sweeps", float64(st.PeriodicSweeps))
	pub("sweep_visits", "variables examined by periodic sweeps", float64(st.SweepVisits))
	pub("retracts", "RetractBatches calls", float64(st.Retractions))
	pub("retract_cone_vars", "variables rolled back across all retractions", float64(st.RetractConeVars))
	pub("retract_replayed", "surviving constraints replayed during retraction rebuilds", float64(st.RetractReplayed))
}
