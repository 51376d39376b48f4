package core

import (
	"fmt"
	"strings"
	"time"
)

// MetricsSink is the solver's one hook channel: solver events and
// per-operation measurements, as they happen; Stats and StorageStats are
// the pull side. internal/telemetry.SolverMetrics is the standard
// implementation. Hooks fire on the solver's hot path, so implementations
// must be cheap; a nil Options.Metrics costs one branch per hook site.
type MetricsSink interface {
	// Edge fires on every new edge, never on a redundant attempt; kind,
	// from, to and work are as in Event.
	Edge(kind EventKind, from, to Expr, work int64)
	// Event delivers an EventCycle after each collapse (a sweep's
	// components included) and an EventSweep after each periodic sweep.
	Event(ev Event)
	// CycleSearch fires after each online closing-chain search with the
	// number of nodes visited — the per-search distribution behind
	// Theorem 5.2, which Stats collapses to the VisitsPerSearch mean.
	CycleSearch(visits int)
	// ClosureDone reports one top-level closure drain's wall-clock time
	// and the increase in Stats.Work and Stats.Redundant since the
	// previous ClosureDone; Work outside a top-level drain (retraction
	// replays, CollapseCycles) counts at the next one.
	ClosureDone(d time.Duration, work, redundant int64)
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
	// a pass over predecessor edges that reaches every variable after its
	// predecessors.
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

// spelling lists the command-line names of one value, flag name first.
type spelling[T fmt.Stringer] struct {
	value T
	names []string
}

// formNames and policyNames are the one list behind ParseForm,
// ParseCyclePolicy and the -form/-cycles flag help. CycleOracle has no
// entry: no command line can supply the Oracle it needs.
var (
	formNames = []spelling[Form]{
		{SF, []string{"sf"}},
		{IF, []string{"if"}},
	}
	policyNames = []spelling[CyclePolicy]{
		{CycleNone, []string{"none", "plain"}},
		{CycleOnline, []string{"online"}},
		{CycleOnlineIncreasing, []string{"online-incr", "incr"}},
		{CyclePeriodic, []string{"periodic"}},
	}
)

// ParseForm parses a graph form as the commands spell it ("sf", "if")
// or as Form.String renders it, in any case.
func ParseForm(s string) (Form, error) { return parseName("form", s, formNames) }

// ParseCyclePolicy parses a cycle policy as the commands spell it
// ("none", "plain", "online", "online-incr", "incr", "periodic") or as
// CyclePolicy.String renders it, in any case. It rejects CycleOracle.
func ParseCyclePolicy(s string) (CyclePolicy, error) {
	return parseName("cycle policy", s, policyNames)
}

// FormNames lists the flag name of every form ParseForm accepts, for
// flag help.
func FormNames() string { return flagNames(formNames) }

// CyclePolicyNames lists the flag name of every policy ParseCyclePolicy
// accepts, for flag help.
func CyclePolicyNames() string { return flagNames(policyNames) }

func parseName[T fmt.Stringer](kind, s string, table []spelling[T]) (T, error) {
	for _, e := range table {
		if strings.EqualFold(s, e.value.String()) {
			return e.value, nil
		}
		for _, n := range e.names {
			if strings.EqualFold(s, n) {
				return e.value, nil
			}
		}
	}
	var zero T
	return zero, fmt.Errorf("polce: unknown %s %q (want %s)", kind, s, flagNames(table))
}

func flagNames[T fmt.Stringer](table []spelling[T]) string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.names[0]
	}
	return strings.Join(names, ", ")
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
	// Form selects the graph representation (default SF; any value but
	// SF is IF).
	Form Form
	// Order selects the variable-order strategy (default OrderRandom).
	Order OrderStrategy
	// Cycles selects the cycle-elimination policy (default CycleNone,
	// which an unknown value also selects).
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
	// Metrics, when non-nil, receives solver events and per-operation
	// measurements; see MetricsSink. It must not mutate the system.
	Metrics MetricsSink
	// Retractable enables constraint retraction: every batch added
	// between BeginBatch/EndBatch is recorded (constraints and variable
	// footprint) so RetractBatches can later remove it and rebuild only
	// the entangled dirty cone. Off by default: tracking costs memory
	// proportional to the added constraints and a branch per edge
	// attempt; it only records, so the graph it builds is the same.
	// Incompatible with CyclePeriodic (NewSystem panics), whose global
	// sweeps couple otherwise-independent batches.
	Retractable bool
}
