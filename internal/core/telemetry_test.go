package core

import (
	"strings"
	"testing"
	"time"
)

// cyclicWorkload builds a system with several overlapping variable cycles
// so that online collapses (and their events) actually fire.
func cyclicWorkload(t *testing.T, opt Options) (*System, []*Var) {
	t.Helper()
	s := NewSystem(opt)
	vars := make([]*Var, 24)
	for i := range vars {
		vars[i] = s.Fresh("v")
	}
	// Three chained cycles of size 8, then a back edge joining them all.
	for c := 0; c < 3; c++ {
		base := c * 8
		for i := 0; i < 8; i++ {
			s.AddConstraint(vars[base+i], vars[base+(i+1)%8])
		}
	}
	s.AddConstraint(vars[0], vars[8])
	s.AddConstraint(vars[8], vars[16])
	s.AddConstraint(vars[16], vars[0])
	return s, vars
}

// TestStatsStringIncludesSweepCounters is the regression test for the
// String method silently omitting the periodic-sweep counters.
func TestStatsStringIncludesSweepCounters(t *testing.T) {
	st := Stats{PeriodicSweeps: 3, SweepVisits: 71}
	got := st.String()
	if !strings.Contains(got, "sweeps=3") {
		t.Errorf("Stats.String() = %q; missing PeriodicSweeps (want sweeps=3)", got)
	}
	if !strings.Contains(got, "sweepvisits=71") {
		t.Errorf("Stats.String() = %q; missing SweepVisits (want sweepvisits=71)", got)
	}
}

// TestEventVarsNotMutatedAfterDelivery asserts the documented Event
// contract from the solver's side: the Vars slice delivered with an
// EventCycle is freshly allocated and never aliased or mutated by later
// solver activity (events.go says the sink must not retain it; this
// verifies the solver does not either).
func TestEventVarsNotMutatedAfterDelivery(t *testing.T) {
	type delivered struct {
		vars []*Var // the slice as delivered (retained on purpose here)
		copy []*Var // a snapshot taken at delivery time
	}
	var got []delivered
	opt := Options{
		Form:   IF,
		Cycles: CycleOnline,
		Seed:   7,
		Metrics: &recordingSink{on: func(ev Event) {
			if ev.Kind != EventCycle {
				return
			}
			if ev.Collapsed != len(ev.Vars) {
				t.Errorf("EventCycle Collapsed = %d, want len(Vars) = %d", ev.Collapsed, len(ev.Vars))
			}
			got = append(got, delivered{vars: ev.Vars, copy: append([]*Var(nil), ev.Vars...)})
		}},
	}
	s, _ := cyclicWorkload(t, opt)
	if len(got) == 0 {
		t.Fatal("workload produced no cycle collapses")
	}
	if s.Stats().CyclesFound == 0 {
		t.Fatal("expected online cycles to be found")
	}
	for i, d := range got {
		if len(d.vars) != len(d.copy) {
			t.Fatalf("event %d: Vars length changed after delivery: %d != %d", i, len(d.vars), len(d.copy))
		}
		for j := range d.vars {
			if d.vars[j] != d.copy[j] {
				t.Errorf("event %d: Vars[%d] mutated after delivery", i, j)
			}
		}
	}
	// Distinct events must not share backing storage either (an aliased
	// scratch buffer would make retained slices see later collapses).
	for i := 1; i < len(got); i++ {
		if len(got[i-1].vars) > 0 && len(got[i].vars) > 0 && &got[i-1].vars[0] == &got[i].vars[0] {
			t.Errorf("events %d and %d share Vars backing storage", i-1, i)
		}
	}
}

// recordingSink captures every MetricsSink callback but Edge. on, when
// set, receives each event and each new edge packed into an Event.
type recordingSink struct {
	on       func(Event)
	events   []Event
	searches []int
	closures []closureReport
	lsPasses []LSPass
	retracts []RetractReport
}

// closureReport is one ClosureDone call's arguments.
type closureReport struct {
	d               time.Duration
	work, redundant int64
}

func (r *recordingSink) Edge(kind EventKind, from, to Expr, work int64) {
	if r.on != nil {
		r.on(Event{Kind: kind, From: from, To: to, Work: work})
	}
}
func (r *recordingSink) Event(ev Event) {
	r.events = append(r.events, ev)
	if r.on != nil {
		r.on(ev)
	}
}
func (r *recordingSink) CycleSearch(visits int) { r.searches = append(r.searches, visits) }
func (r *recordingSink) ClosureDone(d time.Duration, work, redundant int64) {
	r.closures = append(r.closures, closureReport{d, work, redundant})
}
func (r *recordingSink) LeastSolutionDone(p LSPass)  { r.lsPasses = append(r.lsPasses, p) }
func (r *recordingSink) RetractDone(p RetractReport) { r.retracts = append(r.retracts, p) }

// closureTotals sums the Work and Redundant increases ClosureDone carried.
func (r *recordingSink) closureTotals() (work, redundant int64) {
	for _, c := range r.closures {
		work += c.work
		redundant += c.redundant
	}
	return work, redundant
}

// collapsed sums the variables the EventCycle events merged away.
func (r *recordingSink) collapsed() int {
	n := 0
	for _, ev := range r.events {
		if ev.Kind == EventCycle {
			n += ev.Collapsed
		}
	}
	return n
}

// TestMetricsSinkAgreesWithStats cross-checks the per-operation hook
// deltas against the aggregate Stats counters, on SF and IF and on a
// retractable system whose retraction replays and offline collapse drain
// outside AddConstraint.
func TestMetricsSinkAgreesWithStats(t *testing.T) {
	check := func(label string, sink *recordingSink, st Stats) {
		t.Helper()
		work, redundant := sink.closureTotals()
		if work != st.Work {
			t.Errorf("%s: summed ClosureDone work = %d, Stats.Work = %d", label, work, st.Work)
		}
		if redundant != st.Redundant {
			t.Errorf("%s: summed ClosureDone redundant = %d, Stats.Redundant = %d", label, redundant, st.Redundant)
		}
		if int64(len(sink.searches)) != st.CycleSearches {
			t.Errorf("%s: CycleSearch calls = %d, Stats.CycleSearches = %d", label, len(sink.searches), st.CycleSearches)
		}
		var visits int64
		for _, v := range sink.searches {
			visits += int64(v)
		}
		if visits != st.CycleVisits {
			t.Errorf("%s: summed search depths = %d, Stats.CycleVisits = %d", label, visits, st.CycleVisits)
		}
		if merged := sink.collapsed(); merged != st.VarsEliminated {
			t.Errorf("%s: summed EventCycle.Collapsed = %d, Stats.VarsEliminated = %d", label, merged, st.VarsEliminated)
		}
		if len(sink.closures) == 0 {
			t.Errorf("%s: no ClosureDone callbacks", label)
		}
	}
	for _, form := range []Form{SF, IF} {
		sink := &recordingSink{}
		s, _ := cyclicWorkload(t, Options{Form: form, Cycles: CycleOnline, Seed: 11, Metrics: sink})
		check(form.String(), sink, s.Stats())
	}

	// Retractable IF-Online: the retraction's replay and CollapseCycles
	// both add Work outside a top-level drain, and the closing
	// AddConstraint's ClosureDone must carry it.
	sink := &recordingSink{}
	s := NewSystem(Options{Form: IF, Cycles: CycleOnline, Seed: 11, Retractable: true, Metrics: sink})
	a := atoms(3)
	vars := make([]*Var, 48)
	for i := range vars {
		vars[i] = s.Fresh("r")
	}
	var batches []uint64
	for b := 0; b < 3; b++ {
		batches = append(batches, s.BeginBatch())
		for i := b * 16; i < (b+1)*16; i++ {
			s.AddConstraint(a[b], vars[i])
			s.AddConstraint(vars[i], vars[(i*7+1)%len(vars)])
			s.AddConstraint(vars[(i*13+5)%len(vars)], vars[i])
		}
		s.EndBatch()
	}
	before := s.Stats().Work
	if _, err := s.RetractBatches(batches[1:2]); err != nil {
		t.Fatal(err)
	}
	retracted := s.Stats().Work
	if retracted == before {
		t.Fatal("the retraction replayed no Work")
	}
	if n := s.CollapseCycles(); n == 0 {
		t.Fatal("offline collapse found no cycle the online search missed")
	}
	if s.Stats().Work == retracted {
		t.Fatal("the offline collapse added no Work")
	}
	s.AddConstraint(a[0], vars[len(vars)-1])
	check("IF retractable", sink, s.Stats())
}

// TestClosureDoneOnlyFromAddConstraint is the regression test for phase
// misattribution: ClosureDone samples must come only from top-level
// AddConstraint drains. CollapseCycles drains the worklist too, but its
// time is offline collapse work, not closure — reporting it double-counts
// closure time in the phase timers.
func TestClosureDoneOnlyFromAddConstraint(t *testing.T) {
	sink := &recordingSink{}
	s := NewSystem(Options{Form: IF, Cycles: CycleNone, Seed: 5, Metrics: sink})
	vars := make([]*Var, 12)
	for i := range vars {
		vars[i] = s.Fresh("v")
	}
	a := atoms(1)
	s.AddConstraint(a[0], vars[0])
	for i := range vars {
		s.AddConstraint(vars[i], vars[(i+1)%len(vars)])
	}
	adds := len(vars) + 1
	if got := len(sink.closures); got != adds {
		t.Fatalf("ClosureDone samples after %d AddConstraint calls = %d", adds, got)
	}

	// The offline collapse drains re-inserted constraints but must not
	// report its drain as closure time.
	if n := s.CollapseCycles(); n == 0 {
		t.Fatal("offline collapse found no cycles")
	}
	if got := len(sink.closures); got != adds {
		t.Errorf("CollapseCycles added %d ClosureDone sample(s); offline drains must not report closure time", got-adds)
	}
	// The collapse itself is still observed through its own event.
	if sink.collapsed() == 0 {
		t.Error("offline collapse reported no EventCycle")
	}
}

// TestWorklistSampling checks the worklist pressure StorageStats reports:
// its high-water mark is at least every worklist length seen at an edge
// insertion, and the workload drives it past one entry.
func TestWorklistSampling(t *testing.T) {
	var s *System
	seen := 0
	sink := &recordingSink{on: func(ev Event) {
		if ev.Kind <= EventVarEdge {
			seen = max(seen, len(s.work))
		}
	}}
	s = NewSystem(Options{Form: IF, Cycles: CycleOnline, Seed: 3, Metrics: sink})
	atoms := atoms(4)
	vars := make([]*Var, 64)
	for i := range vars {
		vars[i] = s.Fresh("w")
	}
	for i := range vars {
		s.AddConstraint(atoms[i%len(atoms)], vars[i])
		s.AddConstraint(vars[i], vars[(i*7+1)%len(vars)])
		s.AddConstraint(vars[(i*13+5)%len(vars)], vars[i])
	}
	hwm := s.StorageStats().WorklistHWM
	if seen < 2 {
		t.Fatalf("the widest worklist at an edge insertion held %d entries; the workload should queue more", seen)
	}
	if hwm < seen {
		t.Fatalf("WorklistHWM = %d, below the %d entries pending at an edge insertion", hwm, seen)
	}
}
