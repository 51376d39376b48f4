package benchmark

import (
	"testing"

	"polce/internal/telemetry"
)

func rec(trace, id, parent, name string, start, dur int64) telemetry.TraceRecord {
	return telemetry.TraceRecord{Kind: "span", Trace: trace, Span: id, Parent: parent, Name: name, TMicros: start, DurMicros: dur}
}

func TestCoveredMicrosIsTheClippedUnion(t *testing.T) {
	parent := rec("t", "p", "", "loadgen.pass", 0, 100)
	kids := []telemetry.TraceRecord{
		rec("t", "a", "p", "x.a", 10, 20), // [10, 30)
		rec("t", "b", "p", "x.b", 20, 30), // [20, 50) overlaps a
		rec("t", "c", "p", "x.c", 60, 10), // [60, 70)
		rec("t", "d", "p", "x.d", 90, 30), // [90, 120) clipped to 100
	}
	if got := coveredMicros(parent, kids); got != 60 {
		t.Errorf("covered %dµs, want 60", got)
	}
}

// A served request's span tree: the benchmark's request span splits into
// the generator's wait and the client round trip, and the server's own
// http root (same trace ID) joins under the round trip.
func TestJoinedTraceSelfTime(t *testing.T) {
	own := []telemetry.TraceRecord{
		rec("r1", "b1", "", "loadgen.request", 0, 100),
		rec("r1", "b2", "b1", "loadgen.wait", 0, 10),
		rec("r1", "b3", "b1", "net.http", 10, 90),
	}
	served := []telemetry.TraceRecord{
		rec("r1", "000001", "", "http", 20, 70),
		rec("r1", "000002", "000001", "queue-wait", 20, 20),
		{Kind: "stats"},
	}
	joined := joinTraces(own, served)
	a := analyzeTrace(joined)
	want := map[string]float64{"loadgen": 0.010, "net": 0.020, "serve": 0.070}
	for layer, ms := range want {
		if !near(a.SelfMs[layer], ms) {
			t.Errorf("self time of %s = %gms, want %gms (all: %v)", layer, a.SelfMs[layer], ms, a.SelfMs)
		}
	}
	if len(joined) != 5 || a.Coverage.N != 1 || !near(a.Coverage.P50, 1) {
		t.Errorf("%d spans, coverage %+v; want 5 spans and one fully covered request", len(joined), a.Coverage)
	}
}
