package core

// EventKind classifies solver events delivered to Options.Metrics.
type EventKind int

const (
	// EventSourceEdge reports a new source edge c(...) ⊆ X.
	EventSourceEdge EventKind = iota
	// EventSinkEdge reports a new sink edge X ⊆ c(...).
	EventSinkEdge
	// EventVarEdge reports a new variable-variable edge.
	EventVarEdge
	// EventCycle reports an online cycle collapse.
	EventCycle
	// EventSweep reports a periodic offline elimination sweep.
	EventSweep
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventSourceEdge:
		return "source-edge"
	case EventSinkEdge:
		return "sink-edge"
	case EventVarEdge:
		return "var-edge"
	case EventCycle:
		return "cycle"
	case EventSweep:
		return "sweep"
	}
	return "?"
}

// Event is one solver occurrence: a collapse or sweep, delivered to
// MetricsSink.Event, or a new edge, whose fields MetricsSink.Edge takes as
// arguments. The sink must not mutate the system or retain the Vars slice.
type Event struct {
	Kind EventKind

	// From/To identify the edge for the edge events: From is the source
	// expression (a *Term for source edges, a *Var otherwise) and To the
	// target (a *Var, or a *Term for sink edges).
	From, To Expr

	// Witness is the surviving variable of a collapse; Vars are the
	// variables merged into it (EventCycle), or nil for sweeps. The
	// slice is freshly allocated per event: the solver neither retains
	// nor mutates it after delivery (the sink-side contract is the
	// converse — do not retain it into later solver activity).
	Witness *Var
	Vars    []*Var

	// Collapsed is the number of variables eliminated: len(Vars) for a
	// cycle collapse, the sweep's total for a sweep.
	Collapsed int

	// Work is the solver's edge-addition counter at the time of the
	// event.
	Work int64
}

// emit delivers an event if a sink is installed.
func (s *System) emit(ev Event) {
	if s.opt.Metrics != nil {
		ev.Work = s.stats.Work
		s.opt.Metrics.Event(ev)
	}
}
