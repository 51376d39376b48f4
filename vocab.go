package polce

import "polce/internal/core"

// This file re-exports the solver vocabulary so API clients import one
// package. Every name is a true alias of the core (and transitively the
// storage-layer) type, so values flow freely between the layers — a
// telemetry.SolverMetrics still satisfies polce.MetricsSink, and a
// polce.Var is a core.Var.

type (
	// Options configures a Solver; see core.Options for the fields.
	Options = core.Options
	// Form selects the constraint-graph representation.
	Form = core.Form
	// CyclePolicy selects how cyclic constraints are eliminated.
	CyclePolicy = core.CyclePolicy
	// OrderStrategy selects how the total order o(·) is assigned.
	OrderStrategy = core.OrderStrategy
	// Oracle predicts each variable's eventual cycle witness; see
	// BuildOracle.
	Oracle = core.Oracle
	// Stats holds the solver's work counters.
	Stats = core.Stats
	// GraphStats summarises the current graph's size and density.
	GraphStats = core.GraphStats
	// LSCacheState describes the least-solution cache for introspection.
	LSCacheState = core.LSCacheState
	// MetricsSink receives per-operation solver measurements.
	MetricsSink = core.MetricsSink
	// LSPass describes one least-solution engine pass.
	LSPass = core.LSPass
	// RetractReport describes one RetractBatch pass: batches retracted,
	// dirty cone rolled back, survivors replayed; see core.RetractReport.
	RetractReport = core.RetractReport
	// StorageStats reports the drain-shape counters.
	StorageStats = core.StorageStats
	// Event is one solver occurrence, delivered to Options.Metrics.
	Event = core.Event
	// EventKind classifies solver events.
	EventKind = core.EventKind

	// Variance describes how a constructor argument position behaves
	// under inclusion.
	Variance = core.Variance
	// Constructor is an n-ary set constructor with a fixed signature.
	Constructor = core.Constructor
	// Expr is a set expression.
	Expr = core.Expr
	// Var is a set variable, created with Solver.Fresh.
	Var = core.Var
	// Term is a constructed set expression c(se1, ..., sen).
	Term = core.Term
	// Union is a set union usable on the left-hand side of a constraint.
	Union = core.Union
	// Intersection is a set intersection usable on the right-hand side
	// of a constraint.
	Intersection = core.Intersection
)

const (
	// SF is standard form; IF is inductive form.
	SF = core.SF
	IF = core.IF

	// CycleNone through CyclePeriodic are the cycle-elimination policies;
	// see the core.CyclePolicy constants.
	CycleNone             = core.CycleNone
	CycleOnline           = core.CycleOnline
	CycleOnlineIncreasing = core.CycleOnlineIncreasing
	CycleOracle           = core.CycleOracle
	CyclePeriodic         = core.CyclePeriodic

	// OrderRandom through OrderReverseCreation are the variable-order
	// strategies.
	OrderRandom          = core.OrderRandom
	OrderCreation        = core.OrderCreation
	OrderReverseCreation = core.OrderReverseCreation

	// Covariant and Contravariant are the constructor argument variances.
	Covariant     = core.Covariant
	Contravariant = core.Contravariant

	// EventSourceEdge through EventSweep classify solver events.
	EventSourceEdge = core.EventSourceEdge
	EventSinkEdge   = core.EventSinkEdge
	EventVarEdge    = core.EventVarEdge
	EventCycle      = core.EventCycle
	EventSweep      = core.EventSweep
)

var (
	// Zero is the empty set; One is the universal set.
	Zero = core.Zero
	One  = core.One
)

// ParseForm parses a graph form, case-insensitively: "sf" or "if", or
// either value's String.
func ParseForm(s string) (Form, error) { return core.ParseForm(s) }

// ParseCyclePolicy parses a cycle policy, case-insensitively: "none" (or
// "plain"), "online", "online-incr" (or "incr"), "periodic", or any of
// these values' String. It rejects CycleOracle, whose Options.Oracle no
// name can supply.
func ParseCyclePolicy(s string) (CyclePolicy, error) { return core.ParseCyclePolicy(s) }

// NewConstructor returns a fresh constructor with the given name and
// per-argument variance signature.
func NewConstructor(name string, sig ...Variance) *Constructor {
	return core.NewConstructor(name, sig...)
}

// NewTerm builds a constructed term; it panics on an arity mismatch.
func NewTerm(c *Constructor, args ...Expr) *Term {
	return core.NewTerm(c, args...)
}

// NewUnion builds the union of the given expressions.
func NewUnion(exprs ...Expr) *Union { return core.NewUnion(exprs...) }

// NewIntersection builds the intersection of the given expressions.
func NewIntersection(exprs ...Expr) *Intersection {
	return core.NewIntersection(exprs...)
}
