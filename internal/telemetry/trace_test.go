package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"polce/internal/core"
)

// tracingSink is the standard metrics plus every edge and event written
// to a TraceWriter: the shape of a traced solver's one hook.
type tracingSink struct {
	*SolverMetrics
	tw *TraceWriter
}

func (s tracingSink) Edge(kind core.EventKind, from, to core.Expr, work int64) {
	s.tw.Observe(core.Event{Kind: kind, From: from, To: to, Work: work})
}

func (s tracingSink) Event(ev core.Event) {
	s.SolverMetrics.Event(ev)
	s.tw.Observe(ev)
}

// runTracedWorkload solves a small cyclic system with a TraceWriter (and
// SolverMetrics, a fresh one when sm is nil) attached and returns the
// final stats.
func runTracedWorkload(t *testing.T, tw *TraceWriter, sm *SolverMetrics) core.Stats {
	t.Helper()
	if sm == nil {
		sm = NewSolverMetrics(NewRegistry())
	}
	s := core.NewSystem(core.Options{Form: core.IF, Cycles: core.CycleOnline, Seed: 5, Metrics: tracingSink{sm, tw}})
	atom := core.NewTerm(core.NewConstructor("a"))
	vars := make([]*core.Var, 16)
	for i := range vars {
		vars[i] = s.Fresh("v")
	}
	s.AddConstraint(atom, vars[0])
	for i := range vars {
		s.AddConstraint(vars[i], vars[(i+1)%len(vars)])
	}
	for i := 0; i < len(vars); i += 3 {
		s.AddConstraint(vars[(i+5)%len(vars)], vars[i])
	}
	st := s.Stats()
	tw.WriteStats(st)
	return st
}

// TestTraceRoundTrip writes a trace, parses it back, and replays it
// against the solver's own accounting: the closing record must carry the
// final Stats counters, event Work stamps must be monotone and bounded by
// the final Work, and the cycle records must match CyclesFound.
func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	st := runTracedWorkload(t, tw, nil)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("trace has %d records, want events + closing stats", len(recs))
	}

	last := recs[len(recs)-1]
	if last.Kind != "stats" {
		t.Fatalf("last record kind = %q, want stats", last.Kind)
	}
	if last.Work != st.Work {
		t.Errorf("final Work stamp = %d, Stats.Work = %d", last.Work, st.Work)
	}
	if last.Stats == nil {
		t.Fatal("closing record has no stats payload")
	}
	if last.Stats.Work != st.Work || last.Stats.Redundant != st.Redundant ||
		last.Stats.CycleSearches != st.CycleSearches || last.Stats.CycleVisits != st.CycleVisits ||
		last.Stats.CyclesFound != st.CyclesFound || last.Stats.VarsEliminated != st.VarsEliminated {
		t.Errorf("replayed stats %+v do not match Stats %+v", *last.Stats, st)
	}

	events := recs[:len(recs)-1]
	if int64(len(events)) != tw.Events() {
		t.Errorf("parsed %d events, writer reports %d", len(events), tw.Events())
	}
	var cycles int64
	var eliminated int
	prevWork := int64(0)
	for i, r := range events {
		if r.Work < prevWork {
			t.Errorf("event %d: Work went backwards (%d after %d)", i, r.Work, prevWork)
		}
		prevWork = r.Work
		if r.Work > st.Work {
			t.Errorf("event %d: Work stamp %d exceeds final %d", i, r.Work, st.Work)
		}
		if r.TMicros < 0 {
			t.Errorf("event %d: negative timestamp", i)
		}
		if r.Kind == "cycle" {
			cycles++
			eliminated += r.Collapsed
			if r.Witness == "" || len(r.Vars) != r.Collapsed {
				t.Errorf("event %d: malformed cycle record %+v", i, r)
			}
		}
	}
	if cycles != st.CyclesFound {
		t.Errorf("trace has %d cycle records, Stats.CyclesFound = %d", cycles, st.CyclesFound)
	}
	if eliminated != st.VarsEliminated {
		t.Errorf("trace eliminates %d variables, Stats.VarsEliminated = %d", eliminated, st.VarsEliminated)
	}
}

// TestCreateTrace exercises the file-backed path end to end.
func TestCreateTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	tw, err := CreateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	st := runTracedWorkload(t, tw, nil)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if last := recs[len(recs)-1]; last.Kind != "stats" || last.Work != st.Work {
		t.Errorf("closing record = %+v, want stats with work=%d", last, st.Work)
	}
}

// TestTraceWriterConcurrentWriters drives one TraceWriter from many
// goroutines mixing Observe and WriteStats, then parses the output: every
// NDJSON line must survive intact (no interleaving mid-line) and every
// record must be accounted for.
func TestTraceWriterConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	const goroutines, events = 8, 500
	longName := make([]byte, 256)
	for i := range longName {
		longName[i] = 'x'
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := core.NewSystem(core.Options{Form: core.IF, Seed: int64(g)})
			// Long names make torn writes overwhelmingly likely to corrupt
			// a line if the writer's locking ever regresses.
			v := s.Fresh(string(longName))
			w := s.Fresh("w")
			for i := 0; i < events; i++ {
				tw.Observe(core.Event{Kind: core.EventVarEdge, From: v, To: w, Work: int64(i)})
				if i%100 == 0 {
					tw.WriteStats(core.Stats{Work: int64(i)})
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace on concurrently written trace: %v", err)
	}
	var evs, stats int
	for _, r := range recs {
		switch r.Kind {
		case "stats":
			stats++
		default:
			evs++
		}
	}
	if want := goroutines * events; evs != want {
		t.Errorf("parsed %d event records, want %d", evs, want)
	}
	if want := goroutines * (events / 100); stats != want {
		t.Errorf("parsed %d stats records, want %d", stats, want)
	}
	if tw.Events() != int64(goroutines*events) {
		t.Errorf("writer counted %d events, want %d", tw.Events(), goroutines*events)
	}
}

// TestSolverMetricsAgainstStats runs the solver with the standard sink and
// checks the registry's counters against the final Stats.
func TestSolverMetricsAgainstStats(t *testing.T) {
	reg := NewRegistry()
	sm := NewSolverMetrics(reg)
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	st := runTracedWorkload(t, tw, sm)
	_ = tw.Close()

	if sm.EdgeAttempts.Value() != st.Work {
		t.Errorf("edge attempts = %d, Stats.Work = %d", sm.EdgeAttempts.Value(), st.Work)
	}
	if sm.RedundantEdges.Value() != st.Redundant {
		t.Errorf("redundant = %d, Stats.Redundant = %d", sm.RedundantEdges.Value(), st.Redundant)
	}
	if sm.SearchDepth.Count() != uint64(st.CycleSearches) {
		t.Errorf("search-depth count = %d, Stats.CycleSearches = %d", sm.SearchDepth.Count(), st.CycleSearches)
	}
	if sm.SearchDepth.Sum() != float64(st.CycleVisits) {
		t.Errorf("search-depth sum = %v, Stats.CycleVisits = %d", sm.SearchDepth.Sum(), st.CycleVisits)
	}
	if sm.CollapseSize.Sum() != float64(st.VarsEliminated) {
		t.Errorf("collapse-size sum = %v, Stats.VarsEliminated = %d", sm.CollapseSize.Sum(), st.VarsEliminated)
	}
	closure, n := sm.Phases.Get(PhaseClosure)
	if n == 0 || closure < 0 {
		t.Errorf("closure phase = (%v, %d), want at least one drain", closure, n)
	}

	PublishStats(reg, st)
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"polce_edge_attempts_total", "polce_redundant_edge_ratio",
		"polce_cycle_search_depth_bucket", "polce_collapse_size_bucket",
		"polce_phase_seconds{phase=\"closure\"}", "polce_stats_work",
	} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Errorf("Prometheus exposition missing %q:\n%s", want, text)
		}
	}
}
