package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"polce"
	"polce/internal/telemetry"
)

// newTestServer builds a Server with small deterministic settings and
// registers a cleanup drain.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Solver == nil {
		cfg.Solver = polce.New(polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 1})
	}
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, hs
}

func postSCL(t *testing.T, base, program string, wait bool) (*http.Response, map[string]any) {
	t.Helper()
	url := base + "/v1/constraints/default"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "text/plain", strings.NewReader(program))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return m
}

// TestAPIRoundTrip drives the whole v1 surface once: ingest, query both
// read endpoints, inspect the snapshot and health.
func TestAPIRoundTrip(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	resp, body := postSCL(t, hs.URL, "cons a; cons ref(+)\na <= X; X <= Y; ref(X) <= P", true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait ingest status = %d body %v", resp.StatusCode, body)
	}
	if body["applied"].(float64) != 3 {
		t.Fatalf("applied = %v", body["applied"])
	}

	resp, body = getJSON(t, hs.URL+"/v1/least-solution/default/Y")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("least-solution status = %d", resp.StatusCode)
	}
	if terms := body["terms"].([]any); len(terms) != 1 || terms[0] != "a" {
		t.Fatalf("LS(Y) = %v", body["terms"])
	}

	// P's least solution is {ref(X)}: points-to projects the first argument.
	resp, body = getJSON(t, hs.URL+"/v1/points-to/default/P")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("points-to status = %d", resp.StatusCode)
	}
	if locs := body["points_to"].([]any); len(locs) != 1 || locs[0] != "X" {
		t.Fatalf("points-to(P) = %v", body["points_to"])
	}
	// X's own points-to view names the nullary constructor.
	if _, body = getJSON(t, hs.URL+"/v1/points-to/default/X"); fmt.Sprint(body["points_to"]) != "[a]" {
		t.Fatalf("points-to(X) = %v", body["points_to"])
	}

	resp, body = getJSON(t, hs.URL+"/v1/snapshot/default")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status = %d", resp.StatusCode)
	}
	if body["form"] != "IF" || body["vars"].(float64) != 3 || body["errors"].(float64) != 0 {
		t.Fatalf("snapshot = %v", body)
	}
	if body["stats"].(map[string]any)["Work"].(float64) <= 0 {
		t.Fatalf("snapshot stats = %v", body["stats"])
	}

	resp, body = getJSON(t, hs.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, body)
	}
}

// TestAsyncIngestIsEventuallyVisible covers the default 202 path: the
// batch is accepted, and a later read observes it once the ingester has
// drained.
func TestAsyncIngestIsEventuallyVisible(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, body := postSCL(t, hs.URL, "cons a\na <= X", false)
	if resp.StatusCode != http.StatusAccepted || body["accepted"].(float64) != 1 {
		t.Fatalf("async ingest = %d %v", resp.StatusCode, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body = getJSON(t, hs.URL+"/v1/least-solution/default/X")
		if resp.StatusCode == http.StatusOK && fmt.Sprint(body["terms"]) == "[a]" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never became visible: %d %v", resp.StatusCode, body)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJSONBody covers the {"program": ...} body variant.
func TestJSONBody(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	req := `{"program": "cons a; a <= X"}`
	resp, err := http.Post(hs.URL+"/v1/constraints/default?wait=1", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusOK || body["applied"].(float64) != 1 {
		t.Fatalf("JSON ingest = %d %v", resp.StatusCode, body)
	}
}

// TestErrorMapping drives each typed error through real HTTP and checks
// the table-driven status it lands on.
func TestErrorMapping(t *testing.T) {
	srv, hs := newTestServer(t, Config{})

	// 400: malformed SCL, atomically rolled back.
	resp, body := postSCL(t, hs.URL, "this is not scl", true)
	if resp.StatusCode != http.StatusBadRequest || body["kind"] != "bad_request" {
		t.Fatalf("parse error = %d %v", resp.StatusCode, body)
	}

	// 404: unknown variable.
	resp, body = getJSON(t, hs.URL+"/v1/least-solution/default/nope")
	if resp.StatusCode != http.StatusNotFound || body["kind"] != "unknown_var" {
		t.Fatalf("unknown var = %d %v", resp.StatusCode, body)
	}

	// 409: the batch makes the system inconsistent (distinct constructors).
	resp, body = postSCL(t, hs.URL, "cons a; cons b\na <= b", true)
	if resp.StatusCode != http.StatusConflict || body["kind"] != "inconsistent" {
		t.Fatalf("inconsistent = %d %v", resp.StatusCode, body)
	}

	// 410: a draining server refuses new ingestion but keeps serving reads.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, body = postSCL(t, hs.URL, "a <= Z9", true)
	if resp.StatusCode != http.StatusGone || body["kind"] != "closed" {
		t.Fatalf("closed = %d %v", resp.StatusCode, body)
	}
	if resp, _ = getJSON(t, hs.URL+"/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while drained = %d", resp.StatusCode)
	}
}

// TestQueueFullBackpressure fills the bounded queue with no ingester
// running (newServer does not start one) and checks the 503 + Retry-After
// contract end to end.
func TestQueueFullBackpressure(t *testing.T) {
	s := newServer(Config{
		Solver:     polce.New(polce.Options{Form: polce.IF, Seed: 1}),
		QueueDepth: 1,
		RetryAfter: 2 * time.Second,
	}) // note: no ingester goroutine — the queue never drains
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	if resp, body := postSCL(t, hs.URL, "cons a\na <= X", false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first batch = %d %v", resp.StatusCode, body)
	}
	resp, body := postSCL(t, hs.URL, "a <= Y", false)
	if resp.StatusCode != http.StatusServiceUnavailable || body["kind"] != "queue_full" {
		t.Fatalf("full queue = %d %v", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want 2", ra)
	}
}

// TestBoundedStaleness pins the SnapshotMaxStale contract: within the
// window, reads share the cached capture even though ingestion has moved
// the graph version on; with the default (zero) every read is current.
func TestBoundedStaleness(t *testing.T) {
	_, hs := newTestServer(t, Config{SnapshotMaxStale: time.Hour})

	_, body := postSCL(t, hs.URL, "cons a\na <= X", true)
	v1 := body["version"].(float64)
	if resp, body := getJSON(t, hs.URL+"/v1/snapshot/default"); resp.StatusCode != http.StatusOK || body["version"].(float64) != v1 {
		t.Fatalf("first read = %d %v, want version %v", resp.StatusCode, body, v1)
	}

	// A second applied batch moves the live version, but reads inside the
	// staleness window keep serving the cached snapshot.
	_, body = postSCL(t, hs.URL, "a <= Y", true)
	if v2 := body["version"].(float64); v2 <= v1 {
		t.Fatalf("ingestion did not move the version: %v -> %v", v1, v2)
	}
	if _, body := getJSON(t, hs.URL+"/v1/snapshot/default"); body["version"].(float64) != v1 {
		t.Fatalf("stale read version = %v, want cached %v", body["version"], v1)
	}
	// Y exists in the session but postdates the cached capture: its least
	// solution reads as empty until the window lapses.
	if resp, body := getJSON(t, hs.URL+"/v1/least-solution/default/Y"); resp.StatusCode != http.StatusOK || len(body["terms"].([]any)) != 0 {
		t.Fatalf("stale LS(Y) = %d %v, want empty", resp.StatusCode, body)
	}
}

// TestStatusTable pins the error → status and kind mapping directly,
// including wrapped errors, so the table can't rot behind the HTTP tests.
func TestStatusTable(t *testing.T) {
	cases := []struct {
		err  error
		want int
		kind string
	}{
		{polce.ErrInconsistent, http.StatusConflict, "inconsistent"},
		{fmt.Errorf("wrapping: %w", polce.ErrInconsistent), http.StatusConflict, "inconsistent"},
		{polce.ErrQueueFull, http.StatusServiceUnavailable, "queue_full"},
		{polce.ErrSolverClosed, http.StatusGone, "closed"},
		{ErrUnknownVar, http.StatusNotFound, "unknown_var"},
		{ErrBadRequest, http.StatusBadRequest, "bad_request"},
		{fmt.Errorf("%w: details", ErrBadRequest), http.StatusBadRequest, "bad_request"},
		{fmt.Errorf("%w: disk full", ErrWALFailed), http.StatusInternalServerError, "wal_failed"},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline"},
		{io.ErrUnexpectedEOF, http.StatusInternalServerError, "internal"},
	}
	for _, c := range cases {
		if got := StatusOf(c.err); got != c.want {
			t.Errorf("StatusOf(%v) = %d, want %d", c.err, got, c.want)
		}
		if code, kind := classify(c.err); code != c.want || kind != c.kind {
			t.Errorf("classify(%v) = %d %q, want %d %q", c.err, code, kind, c.want, c.kind)
		}
	}
	// An *InconsistentError from the solver maps like the sentinel.
	sys := polce.New(polce.Options{Seed: 1})
	sys.AddConstraint(polce.NewTerm(polce.NewConstructor("x")), polce.NewTerm(polce.NewConstructor("y")))
	if errs := sys.Errors(); len(errs) != 1 || StatusOf(errs[0]) != http.StatusConflict {
		t.Fatalf("solver inconsistency maps to %d", StatusOf(sys.Errors()[0]))
	}
}

// TestRouteMetrics checks the per-route instrumentation reaches the shared
// registry and the mounted /metrics endpoint.
func TestRouteMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, hs := newTestServer(t, Config{Registry: reg})

	postSCL(t, hs.URL, "cons a\na <= X", true)
	getJSON(t, hs.URL+"/v1/least-solution/default/X")
	getJSON(t, hs.URL+"/v1/least-solution/default/missing") // a 4xx

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"polce_http_request_seconds_constraints_count 1",
		"polce_http_request_seconds_least_solution_count 2",
		"polce_http_requests_least_solution_2xx 1",
		"polce_http_requests_least_solution_4xx 1",
		"polce_http_requests_constraints_2xx 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
