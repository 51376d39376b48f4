package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polce"
	"polce/internal/telemetry"
)

// tracedConfig builds a Config with tracing, solver metrics and a registry
// wired the way polce-serve wires them, writing spans into buf.
func tracedConfig(buf *bytes.Buffer) (Config, *telemetry.TraceWriter) {
	reg := telemetry.NewRegistry()
	sm := telemetry.NewSolverMetrics(reg)
	solver := polce.New(polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 1, Metrics: sm})
	tw := telemetry.NewTraceWriter(buf)
	return Config{
		Solver:        solver,
		Registry:      reg,
		Tracer:        telemetry.NewTracer(tw),
		SolverMetrics: sm,
	}, tw
}

// spansOf indexes one request's spans by name.
func spansOf(t *testing.T, recs []telemetry.TraceRecord, trace string) map[string]telemetry.TraceRecord {
	t.Helper()
	out := map[string]telemetry.TraceRecord{}
	for _, r := range telemetry.SpanTree(recs)[trace] {
		out[r.Name] = r
	}
	return out
}

// TestRequestSpansLinked drives a synchronous ingest and a read through a
// traced server and rebuilds the span trees: every span of a request must
// share the request ID (which the response echoes in X-Request-Id), the
// write path must show queue-wait and ingest-drain as children of the
// http root, and the read path a snapshot-capture child. The
// concurrent_writes subtest checks the write path under contention.
func TestRequestSpansLinked(t *testing.T) {
	var buf bytes.Buffer
	cfg, tw := tracedConfig(&buf)
	_, hs := newTestServer(t, cfg)

	const writeID = "deadbeefdeadbeef"
	req, _ := http.NewRequest("POST", hs.URL+"/v1/constraints/default?wait=1",
		strings.NewReader("cons a; cons ref(+)\na <= X; X <= Y; Y <= X; ref(X) <= P"))
	req.Header.Set("X-Request-Id", writeID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != writeID {
		t.Fatalf("X-Request-Id echoed %q, want %q", got, writeID)
	}

	readResp, err := http.Get(hs.URL + "/v1/points-to/default/Y")
	if err != nil {
		t.Fatal(err)
	}
	readResp.Body.Close()
	readID := readResp.Header.Get("X-Request-Id")
	if readID == "" {
		t.Fatal("read response has no generated X-Request-Id")
	}

	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	write := spansOf(t, recs, writeID)
	httpSpan, ok := write["http"]
	if !ok {
		t.Fatalf("write trace %q has no http span; spans: %v", writeID, write)
	}
	if httpSpan.Parent != "" {
		t.Errorf("http span has parent %q, want root", httpSpan.Parent)
	}
	if route := httpSpan.Attrs["route"]; route != "constraints" {
		t.Errorf("http span route = %v, want constraints", route)
	}
	for _, name := range []string{"queue-wait", "ingest-drain"} {
		sp, ok := write[name]
		if !ok {
			t.Fatalf("write trace missing %s span", name)
		}
		if sp.Parent != httpSpan.Span {
			t.Errorf("%s span parent = %q, want http span %q", name, sp.Parent, httpSpan.Span)
		}
	}
	// The batch closes a cycle, so closure time accrued and the drain must
	// carry a cycle-search child.
	if cs, ok := write["cycle-search"]; !ok {
		t.Error("write trace missing cycle-search span")
	} else if cs.Parent != write["ingest-drain"].Span {
		t.Errorf("cycle-search parent = %q, want ingest-drain %q", cs.Parent, write["ingest-drain"].Span)
	}
	// queue-wait + ingest-drain must account for time inside the http span.
	if sum := write["queue-wait"].DurMicros + write["ingest-drain"].DurMicros; sum > httpSpan.DurMicros+1000 {
		t.Errorf("children (%dµs) exceed http span (%dµs)", sum, httpSpan.DurMicros)
	}

	read := spansOf(t, recs, readID)
	if _, ok := read["http"]; !ok {
		t.Fatalf("read trace %q has no http span", readID)
	}
	capture, ok := read["snapshot-capture"]
	if !ok {
		t.Fatalf("read trace missing snapshot-capture span; spans: %v", read)
	}
	if capture.Parent != read["http"].Span {
		t.Errorf("snapshot-capture parent = %q, want http %q", capture.Parent, read["http"].Span)
	}
	// The read is the first snapshot at this version, so an LS pass ran.
	if ls, ok := read["ls-pass"]; !ok {
		t.Error("read trace missing ls-pass span")
	} else if ls.Parent != capture.Span {
		t.Errorf("ls-pass parent = %q, want snapshot-capture %q", ls.Parent, capture.Span)
	}

	t.Run("concurrent_writes", testConcurrentWriteSpans)
}

// testConcurrentWriteSpans sends concurrent synchronous ingests through a
// traced server. Every write shows await-apply, queue-wait and
// ingest-drain as children of its http root, its result-handoff ends no
// later than its await-apply, and queue-wait, ingest-drain and
// result-handoff together account for the await-apply interval. The
// writes queue up before the ingester starts, so all pickups but the last
// find more work queued.
func testConcurrentWriteSpans(t *testing.T) {
	var buf bytes.Buffer
	cfg, tw := tracedConfig(&buf)
	s := newServer(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		prog := fmt.Sprintf("cons c%d\nc%d <= W%d; W%d <= Y", i, i, i, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/v1/constraints/default?wait=1", "text/plain", strings.NewReader(prog))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("ingest %d status = %d", i, resp.StatusCode)
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); s.QueueLen() < writers && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	queued := s.QueueLen()
	// Holding the full queue makes every await-apply span last at least
	// this long, so the few hundred microseconds of span writes that the
	// coverage ratio below counts against a request stay a small share.
	time.Sleep(50 * time.Millisecond)
	go s.ingest()
	wg.Wait()
	if queued != writers {
		t.Fatalf("%d of %d writes queued before the ingester started", queued, writers)
	}

	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	var ratios []float64
	for trace := range telemetry.SpanTree(recs) {
		write := spansOf(t, recs, trace)
		httpSpan := write["http"]
		if httpSpan.Attrs["route"] != "constraints" {
			continue
		}
		if httpSpan.Parent != "" {
			t.Errorf("write %s: http span has parent %q, want root", trace, httpSpan.Parent)
		}
		for _, name := range []string{"await-apply", "queue-wait", "ingest-drain"} {
			sp, ok := write[name]
			if !ok {
				t.Errorf("write %s: missing %s span", trace, name)
			} else if sp.Parent != httpSpan.Span {
				t.Errorf("write %s: %s span parent = %q, want http span %q", trace, name, sp.Parent, httpSpan.Span)
			}
		}
		if sum := write["queue-wait"].DurMicros + write["ingest-drain"].DurMicros; sum > httpSpan.DurMicros+1000 {
			t.Errorf("write %s: children (%dµs) exceed http span (%dµs)", trace, sum, httpSpan.DurMicros)
		}
		// Start and duration are each truncated to whole microseconds, so
		// an end can read up to 2µs late.
		if handoff, ok := write["result-handoff"]; ok {
			await := write["await-apply"]
			if over := handoff.TMicros + handoff.DurMicros - (await.TMicros + await.DurMicros); over > 2 {
				t.Errorf("write %s: result-handoff ends %dµs after await-apply", trace, over)
			}
		}
		if await := write["await-apply"].DurMicros; await > 0 {
			parts := write["queue-wait"].DurMicros + write["ingest-drain"].DurMicros + write["result-handoff"].DurMicros
			ratios = append(ratios, float64(parts)/float64(await))
		}
	}
	if len(ratios) != writers {
		t.Fatalf("%d timed write traces, want %d", len(ratios), writers)
	}
	// The three phases are measured inside the handler's await interval:
	// much less means the pipeline lost time, much more double-counts.
	// The median is per request, because medians of the parts do not add.
	sort.Float64s(ratios)
	if med := ratios[len(ratios)/2]; med < 0.75 || med > 1.25 {
		t.Errorf("median (queue-wait+ingest-drain+result-handoff)/await-apply = %.2f, want 0.75-1.25 (all: %v)", med, ratios)
	}
}

// TestSlowQueryLog sets a sub-nanosecond slow-query threshold so every
// request is an outlier, and checks the warn lines carry the request ID,
// route, variable, version and phase breakdown.
func TestSlowQueryLog(t *testing.T) {
	var logBuf bytes.Buffer
	cfg := Config{
		Logger:    telemetry.NewLogger(&logBuf, slog.LevelInfo),
		SlowQuery: time.Nanosecond,
	}
	_, hs := newTestServer(t, cfg)

	if resp, body := postSCL(t, hs.URL, "cons a\na <= X; X <= Y", true); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d %v", resp.StatusCode, body)
	}
	if resp, _ := getJSON(t, hs.URL+"/v1/points-to/default/Y"); resp.StatusCode != http.StatusOK {
		t.Fatalf("read status = %d", resp.StatusCode)
	}

	type line struct {
		Level     string `json:"level"`
		Msg       string `json:"msg"`
		RequestID string `json:"request_id"`
		Route     string `json:"route"`
		Var       string `json:"var"`
		Version   uint64 `json:"version"`
		Phases    map[string]any
	}
	byRoute := map[string]line{}
	sc := bufio.NewScanner(&logBuf)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", sc.Text(), err)
		}
		var raw map[string]json.RawMessage
		_ = json.Unmarshal(sc.Bytes(), &raw)
		if ph, ok := raw["phases"]; ok {
			_ = json.Unmarshal(ph, &l.Phases)
		}
		byRoute[l.Route] = l
	}

	ingest, ok := byRoute["constraints"]
	if !ok {
		t.Fatalf("no log line for constraints route; got %v", byRoute)
	}
	if ingest.Msg != "slow query" || ingest.Level != "WARN" {
		t.Errorf("ingest line = %q/%q, want slow query at WARN", ingest.Msg, ingest.Level)
	}
	if ingest.RequestID == "" || ingest.Version == 0 {
		t.Errorf("ingest line missing request_id/version: %+v", ingest)
	}
	for _, phase := range []string{"queue_wait", "ingest_drain"} {
		if _, ok := ingest.Phases[phase]; !ok {
			t.Errorf("ingest line phases missing %s: %v", phase, ingest.Phases)
		}
	}

	read, ok := byRoute["points_to"]
	if !ok {
		t.Fatal("no log line for points_to route")
	}
	if read.Var != "Y" || read.Version == 0 {
		t.Errorf("read line var/version = %q/%d, want Y at a positive version", read.Var, read.Version)
	}
	if _, ok := read.Phases["snapshot_capture"]; !ok {
		t.Errorf("read line phases missing snapshot_capture: %v", read.Phases)
	}
}

// TestOtherRouteCounted sends a request no route claims and checks it is
// a typed 404 counted under the "other" metrics instead of being dropped.
func TestOtherRouteCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, hs := newTestServer(t, Config{Registry: reg})

	resp, body := getJSON(t, hs.URL+"/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unrouted status = %d, want 404", resp.StatusCode)
	}
	if body["kind"] != "not_found" {
		t.Errorf("kind = %v, want not_found", body["kind"])
	}

	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "polce_http_requests_other_4xx 1") {
		t.Errorf("metrics missing other-route 4xx count:\n%s", out.String())
	}
}

// TestStatusRecorderFlush checks the Flusher passthrough: flushing the
// recorder must reach the underlying writer, and a non-Flusher underlying
// writer must not panic.
func TestStatusRecorderFlush(t *testing.T) {
	w := httptest.NewRecorder()
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	var f http.Flusher = rec
	f.Flush()
	if !w.Flushed {
		t.Error("Flush did not reach the underlying ResponseWriter")
	}

	plain := &statusRecorder{ResponseWriter: nonFlusher{}, status: http.StatusOK}
	plain.Flush() // must not panic
}

type nonFlusher struct{ http.ResponseWriter }

// TestDebugStats exercises the introspection endpoint against a known
// program: a collapsed 3-cycle and one fat variable.
func TestDebugStats(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	prog := "cons a; cons b; cons c\n" +
		"X <= Y; Y <= Z; Z <= X\n" + // a 3-cycle for the SCC stats
		"a <= Big; b <= Big; c <= Big; a <= X"
	if resp, body := postSCL(t, hs.URL, prog, true); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d %v", resp.StatusCode, body)
	}

	resp, body := getJSON(t, hs.URL+"/v1/debug/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/stats status = %d body %v", resp.StatusCode, body)
	}
	scc := body["scc"].(map[string]any)
	if scc["collapsed_classes"].(float64) != 1 || scc["max_class"].(float64) != 3 {
		t.Errorf("scc = %v, want one collapsed class of 3", scc)
	}
	hist := scc["size_histogram"].(map[string]any)
	if hist["3-4"].(float64) != 1 {
		t.Errorf("size_histogram = %v, want one class in 3-4", hist)
	}
	if eliminated := scc["vars_eliminated"].(float64); eliminated != 2 {
		t.Errorf("vars_eliminated = %v, want 2", eliminated)
	}
	graph := body["graph"].(map[string]any)
	if graph["live_vars"].(float64) <= 0 {
		t.Errorf("graph = %v, want live vars", graph)
	}
	ls := body["ls_cache"].(map[string]any)
	if ls["hot"] != true {
		t.Errorf("ls_cache = %v, want hot after snapshot", ls)
	}
	queue := body["queue"].(map[string]any)
	if queue["ingested"].(float64) != 7 {
		t.Errorf("queue.ingested = %v, want 7", queue["ingested"])
	}
}

// TestDebugTop checks ranking, the k parameter, and its validation.
func TestDebugTop(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	prog := "cons a; cons b; cons c\n" +
		"a <= Big; b <= Big; c <= Big; a <= Small"
	if resp, body := postSCL(t, hs.URL, prog, true); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d %v", resp.StatusCode, body)
	}

	resp, body := getJSON(t, hs.URL+"/v1/debug/top?k=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/top status = %d body %v", resp.StatusCode, body)
	}
	top := body["top"].([]any)
	if len(top) != 1 {
		t.Fatalf("top has %d rows, want 1", len(top))
	}
	first := top[0].(map[string]any)
	if first["var"] != "Big" || first["terms"].(float64) != 3 {
		t.Errorf("top[0] = %v, want Big with 3 terms", first)
	}

	if resp, _ := getJSON(t, hs.URL+"/v1/debug/top?k=0"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("k=0 status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := getJSON(t, hs.URL+"/v1/debug/top?k=junk"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("k=junk status = %d, want 400", resp.StatusCode)
	}
}

// TestDebugEndpointsRaceIngestion hammers both debug endpoints from many
// readers while a writer streams batches in — under -race this proves the
// introspection surface reads only frozen snapshot state.
func TestDebugEndpointsRaceIngestion(t *testing.T) {
	_, hs := newTestServer(t, Config{SnapshotMaxStale: time.Millisecond})
	if resp, body := postSCL(t, hs.URL, "cons a0\na0 <= v0", true); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed = %d %v", resp.StatusCode, body)
	}

	var (
		stop atomic.Bool
		hits atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 1; i <= 30; i++ {
			prog := fmt.Sprintf("cons a%d\na%d <= v%d; v%d <= v%d; v%d <= v%d", i, i, i, i-1, i, i, i-1)
			resp, err := http.Post(hs.URL+"/v1/constraints/default?wait=1", "text/plain", strings.NewReader(prog))
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("writer batch %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			url := hs.URL + "/v1/debug/stats"
			if g%2 == 1 {
				url = hs.URL + "/v1/debug/top?k=5"
			}
			for !stop.Load() {
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader: status %d from %s", resp.StatusCode, url)
					return
				}
				hits.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if hits.Load() == 0 {
		t.Error("debug readers never completed a request")
	}
}
