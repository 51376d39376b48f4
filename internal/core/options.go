package core

import "time"

// MetricsSink receives per-operation solver measurements as they happen.
// It is the distribution-level counterpart of Options.Observer: where the
// observer delivers discrete events, the sink records the per-operation
// costs — search depth, collapse size, worklist pressure — that exist only
// as aggregates in Stats. internal/telemetry.SolverMetrics is the standard
// implementation. Hooks fire on the solver's hot path, so implementations
// must be cheap; a nil Options.Metrics costs one branch per hook site.
type MetricsSink interface {
	// EdgeAttempt fires on every attempted edge addition (each Work
	// increment); redundant reports whether the edge was already present.
	EdgeAttempt(redundant bool)
	// CycleSearch fires after each online closing-chain search with the
	// number of nodes visited — the per-search distribution behind
	// Theorem 5.2, which Stats collapses to the VisitsPerSearch mean.
	CycleSearch(visits int)
	// Collapse fires after each collapse with the number of variables
	// merged away, for online cycles and periodic sweeps alike.
	Collapse(merged int)
	// WorklistLen samples the pending-constraint worklist length every
	// worklistSampleInterval steps.
	WorklistLen(n int)
	// ClosureDone reports the wall-clock time one closure drain took —
	// the solver-side share of a client's constraint-generation phase.
	ClosureDone(d time.Duration)
	// LeastSolutionDone fires after each inductive-form least-solution
	// pass with its shape and cost; see LSPass.
	LeastSolutionDone(p LSPass)
	// RetractDone fires after each RetractBatches call with its shape and
	// cost — in particular the dirty-cone size against the total variable
	// count; see RetractReport.
	RetractDone(p RetractReport)
}

// LSPass describes one least-solution engine pass for MetricsSink
// consumers: how long it took, how the predecessor DAG levelled, how much
// of the graph was stale (ConeVars out of TotalVars), and how the union
// memo fared during this pass specifically (hit/miss deltas, not running
// totals).
type LSPass struct {
	// Duration is the wall-clock time of the pass.
	Duration time.Duration
	// Levels is the number of topological levels in the predecessor DAG.
	Levels int
	// ConeVars is the number of variables actually recomputed (the dirty
	// cone); TotalVars is the number of canonical variables swept.
	ConeVars  int
	TotalVars int
	// UnionHits and UnionMisses count memoized-union lookups during this
	// pass: a hit reuses an interned result, a miss computes the union.
	UnionHits   int64
	UnionMisses int64
	// Workers is the resolved worker count the pass ran with.
	Workers int
}

// Form selects the constraint-graph representation.
type Form int

const (
	// SF is standard form: every variable-variable constraint X ⊆ Y is a
	// successor edge X → Y, and only sources appear in predecessor lists.
	// The closed graph contains the least solution explicitly.
	SF Form = iota
	// IF is inductive form: a variable-variable constraint X ⊆ Y is stored
	// as a successor edge of X when o(X) > o(Y) and as a predecessor edge
	// of Y when o(X) < o(Y). The least solution is computed afterwards by
	// an ascending-order pass over predecessor edges.
	IF
)

// String returns "SF" or "IF".
func (f Form) String() string {
	if f == SF {
		return "SF"
	}
	return "IF"
}

// CyclePolicy selects how (and whether) cyclic constraints are eliminated.
type CyclePolicy int

const (
	// CycleNone performs no cycle elimination (the paper's "Plain" runs).
	CycleNone CyclePolicy = iota
	// CycleOnline runs the paper's partial online cycle elimination: at
	// each variable-variable edge insertion, search order-decreasing
	// chains for a closing path and collapse any cycle found.
	CycleOnline
	// CycleOnlineIncreasing is the §4 ablation for standard form: the
	// search follows successor edges toward *higher*-ordered variables.
	// It detects more cycles than CycleOnline on SF but visits many more
	// nodes. It behaves exactly like CycleOnline under IF.
	CycleOnlineIncreasing
	// CycleOracle consults a precomputed Oracle that predicts, at
	// variable-creation time, the strongly connected component each
	// variable will eventually join; every SCC is represented by a single
	// witness for the whole run, so the graphs stay acyclic. This is the
	// paper's perfect, zero-cost elimination lower bound.
	CycleOracle
	// CyclePeriodic runs an offline Tarjan sweep over the whole graph
	// every Options.PeriodicInterval edge additions, collapsing every
	// strongly connected component found. This is the *prior-work*
	// strategy ([FA96, FF97, MW97]) the paper's online approach replaces;
	// it is provided as an ablation baseline.
	CyclePeriodic
)

// String names the policy as in the paper's experiment table.
func (p CyclePolicy) String() string {
	switch p {
	case CycleNone:
		return "Plain"
	case CycleOnline:
		return "Online"
	case CycleOnlineIncreasing:
		return "Online+Incr"
	case CycleOracle:
		return "Oracle"
	case CyclePeriodic:
		return "Periodic"
	}
	return "?"
}

// OrderStrategy selects how the total order o(·) is assigned to fresh
// variables. The paper assumes a random order and reports that "a random
// order performs as well or better than any other order we picked"
// (§2.4); the alternatives exist to reproduce that comparison.
type OrderStrategy int

const (
	// OrderRandom draws each variable's position uniformly (the paper's
	// choice and the default).
	OrderRandom OrderStrategy = iota
	// OrderCreation orders variables by creation time (older = smaller).
	OrderCreation
	// OrderReverseCreation orders variables by reverse creation time.
	OrderReverseCreation
)

// String names the strategy.
func (o OrderStrategy) String() string {
	switch o {
	case OrderRandom:
		return "random"
	case OrderCreation:
		return "creation"
	case OrderReverseCreation:
		return "reverse"
	}
	return "?"
}

// Options configures a System.
type Options struct {
	// Form selects the graph representation (default SF).
	Form Form
	// Order selects the variable-order strategy (default OrderRandom).
	Order OrderStrategy
	// Cycles selects the cycle-elimination policy (default CycleNone).
	Cycles CyclePolicy
	// Seed seeds the random total order o(·) on variables. Two systems
	// with the same seed assign the same order to the same creation
	// indices.
	Seed int64
	// Oracle must be non-nil when Cycles is CycleOracle; see BuildOracle.
	Oracle *Oracle
	// PeriodicInterval is the number of edge additions between offline
	// sweeps under CyclePeriodic. Zero means 1000.
	PeriodicInterval int
	// MaxErrors bounds how many inconsistent-constraint errors are
	// retained (further ones are counted but dropped). Zero means 16.
	MaxErrors int
	// Observer, when non-nil, receives solver events (edge insertions,
	// cycle collapses, sweeps) as they happen. Intended for traces,
	// visualisation and tests; it must not mutate the system.
	Observer func(Event)
	// Metrics, when non-nil, receives per-operation measurements (edge
	// attempts, search depths, collapse sizes, worklist samples, closure
	// times); see MetricsSink. It must not mutate the system.
	Metrics MetricsSink
	// LSWorkers is the worker count for the inductive-form least-solution
	// pass. Levels of the predecessor DAG with enough stale variables are
	// fanned across this many goroutines; results are bit-identical at any
	// setting. Zero or negative means GOMAXPROCS; 1 forces the sequential
	// pass.
	LSWorkers int
	// Retractable enables constraint retraction: every batch added
	// between BeginBatch/EndBatch is recorded (constraints, variable
	// footprint, edge-attempt keys) so RetractBatches can later remove
	// it and rebuild only the entangled dirty cone. Off by
	// default: tracking costs memory proportional to the added
	// constraints and a branch per edge attempt, and a non-retractable
	// system's behavior is bit-identical to previous releases.
	// Incompatible with CyclePeriodic (NewSystem panics), whose global
	// sweeps couple otherwise-independent batches.
	Retractable bool
}
