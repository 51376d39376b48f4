package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"polce"
	"polce/internal/telemetry"
)

// retractableConfig returns a Config whose solver tracks batches, so DELETE
// is live.
func retractableConfig() Config {
	return Config{Solver: polce.New(polce.Options{
		Form: polce.IF, Cycles: polce.CycleOnline, Seed: 1, Retractable: true,
	})}
}

func doReq(t *testing.T, method, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "text/plain")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

// TestRouteTable walks the declared routing surface: every row is reachable
// through real HTTP (routed — not the mux's bare 404) and every row's
// metrics label is a registered route name. The pre-session paths are not
// routes: each answers the catch-all's 404 and counts under "other".
func TestRouteTable(t *testing.T) {
	cfg := retractableConfig()
	reg := telemetry.NewRegistry()
	cfg.Registry = reg
	_, hs := newTestServer(t, cfg)

	// Seed both the default session and a named one.
	if resp, body := postSCL(t, hs.URL, "cons a\na <= X", true); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed default session = %d %v", resp.StatusCode, body)
	}
	resp, body := doReq(t, "POST", hs.URL+"/v1/constraints/s1?wait=1", "cons b\nb <= X")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed session s1 = %d %v", resp.StatusCode, body)
	}
	s1Batch := uint64(body["batch"].(float64))

	names := make(map[string]bool)
	for _, n := range routeNames {
		names[n] = true
	}
	for _, rt := range routeTable {
		if !names[rt.name] {
			t.Errorf("route %q (%s) has no metrics label in routeNames", rt.name, rt.pattern)
		}
		method, path, _ := strings.Cut(rt.pattern, " ")
		path = strings.NewReplacer(
			"{session}", "s1",
			"{var}", "X",
			"{batch}", fmt.Sprint(s1Batch),
		).Replace(path)
		resp, body := doReq(t, method, hs.URL+path, "")
		if resp.StatusCode == http.StatusNotFound && body["kind"] == "not_found" {
			t.Errorf("%s %s fell through to the catch-all", method, path)
		}
	}

	removed := []struct{ method, path, body string }{
		{"POST", "/v1/constraints?wait=1", "a <= Y"},
		{"GET", "/v1/snapshot", ""},
		{"GET", "/v1/least-solution/X", ""},
		{"GET", "/v1/points-to/X", ""},
	}
	for _, r := range removed {
		resp, body := doReq(t, r.method, hs.URL+r.path, r.body)
		if resp.StatusCode != http.StatusNotFound || body["kind"] != "not_found" {
			t.Errorf("%s %s = %d %v, want the catch-all's 404 not_found", r.method, r.path, resp.StatusCode, body)
		}
	}
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("polce_http_requests_other_4xx %d", len(removed)); !strings.Contains(out.String(), want) {
		t.Errorf("metrics missing %q:\n%s", want, out.String())
	}
}

// TestSessionsPartitionNamespace pins the point of sessionizing: two
// sessions declare the same variable name and get distinct solver
// variables, each query resolving through its own session's binder.
func TestSessionsPartitionNamespace(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	if resp, _ := doReq(t, "POST", hs.URL+"/v1/constraints/alpha?wait=1", "cons a\na <= V"); resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha ingest failed: %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, "POST", hs.URL+"/v1/constraints/beta?wait=1", "cons b\nb <= V"); resp.StatusCode != http.StatusOK {
		t.Fatalf("beta ingest failed: %d", resp.StatusCode)
	}

	_, body := getJSON(t, hs.URL+"/v1/least-solution/alpha/V")
	if fmt.Sprint(body["terms"]) != "[a]" {
		t.Fatalf("alpha's V = %v, want [a]", body["terms"])
	}
	_, body = getJSON(t, hs.URL+"/v1/least-solution/beta/V")
	if fmt.Sprint(body["terms"]) != "[b]" {
		t.Fatalf("beta's V = %v, want [b]", body["terms"])
	}

	// The snapshot is per-session too: each session interned exactly one
	// variable, and the registry has seen both.
	_, body = getJSON(t, hs.URL+"/v1/snapshot/alpha")
	if body["session"] != "alpha" || body["session_vars"].(float64) != 1 || body["sessions"].(float64) != 2 {
		t.Fatalf("snapshot/alpha = %v", body)
	}

	// A read against a session nobody wrote resolves nothing and creates
	// nothing.
	if resp, body := getJSON(t, hs.URL+"/v1/least-solution/ghost/V"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost session read = %d %v", resp.StatusCode, body)
	}
	if _, body := getJSON(t, hs.URL+"/v1/snapshot/alpha"); body["sessions"].(float64) != 2 {
		t.Fatalf("ghost read minted a session: %v", body["sessions"])
	}

	// A first batch that does not parse is refused whole: it leaves no
	// session behind either.
	if resp, body := doReq(t, "POST", hs.URL+"/v1/constraints/gamma?wait=1", "cons c\nc <="); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unparsable first batch = %d %v", resp.StatusCode, body)
	}
	if _, body := getJSON(t, hs.URL+"/v1/snapshot/alpha"); body["sessions"].(float64) != 2 {
		t.Fatalf("refused batch minted a session: %v", body["sessions"])
	}

	// Bad labels are 400s, not new sessions.
	if resp, body := doReq(t, "POST", hs.URL+"/v1/constraints/bad%2Flabel?wait=1", "cons c\nc <= W"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad label = %d %v", resp.StatusCode, body)
	}
}

// TestRetractHTTP drives the DELETE route end to end: a batch is added,
// observed, retracted by its handle, and its consequences disappear while
// independently justified facts survive.
func TestRetractHTTP(t *testing.T) {
	_, hs := newTestServer(t, retractableConfig())

	resp, body := postSCL(t, hs.URL, "cons a; cons b\na <= X", true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch 1 = %d %v", resp.StatusCode, body)
	}
	keep := uint64(body["batch"].(float64))
	if keep == 0 {
		t.Fatal("retractable server issued no batch handle")
	}
	resp, body = postSCL(t, hs.URL, "b <= X; X <= Y", true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch 2 = %d %v", resp.StatusCode, body)
	}
	drop := uint64(body["batch"].(float64))

	if _, body = getJSON(t, hs.URL+"/v1/least-solution/default/Y"); fmt.Sprint(body["terms"]) != "[a b]" {
		t.Fatalf("LS(Y) before retract = %v", body["terms"])
	}

	resp, body = doReq(t, "DELETE", fmt.Sprintf("%s/v1/constraints/default/%d", hs.URL, drop), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d %v", resp.StatusCode, body)
	}
	report := body["report"].(map[string]any)
	if report["no_op"].(bool) || report["dirty_vars"].(float64) == 0 {
		t.Fatalf("retraction report = %v, want a non-trivial cone", report)
	}

	// Y lost its only justification; X keeps a from the surviving batch.
	if _, body = getJSON(t, hs.URL+"/v1/least-solution/default/Y"); len(body["terms"].([]any)) != 0 {
		t.Fatalf("LS(Y) after retract = %v, want empty", body["terms"])
	}
	if _, body = getJSON(t, hs.URL+"/v1/least-solution/default/X"); fmt.Sprint(body["terms"]) != "[a]" {
		t.Fatalf("LS(X) after retract = %v, want [a]", body["terms"])
	}

	// The handle is consumed: a second DELETE is a 404 and retracts nothing.
	resp, body = doReq(t, "DELETE", fmt.Sprintf("%s/v1/constraints/default/%d", hs.URL, drop), "")
	if resp.StatusCode != http.StatusNotFound || body["kind"] != "unknown_batch" {
		t.Fatalf("double DELETE = %d %v", resp.StatusCode, body)
	}

	// A handle issued under one session cannot be retracted through another.
	resp, body = doReq(t, "DELETE", fmt.Sprintf("%s/v1/constraints/other/%d", hs.URL, keep), "")
	if resp.StatusCode != http.StatusNotFound || body["kind"] != "unknown_batch" {
		t.Fatalf("cross-session DELETE = %d %v", resp.StatusCode, body)
	}
	if _, body = getJSON(t, hs.URL+"/v1/least-solution/default/X"); fmt.Sprint(body["terms"]) != "[a]" {
		t.Fatalf("failed DELETE mutated state: LS(X) = %v", body["terms"])
	}

	// Malformed handles are client errors.
	if resp, body = doReq(t, "DELETE", hs.URL+"/v1/constraints/default/nope", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad handle = %d %v", resp.StatusCode, body)
	}
}

// TestRetractNotImplemented: without Options.Retractable the POST issues no
// handle and the DELETE route answers 501.
func TestRetractNotImplemented(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, body := postSCL(t, hs.URL, "cons a\na <= X", false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest = %d %v", resp.StatusCode, body)
	}
	if _, ok := body["batch"]; ok {
		t.Fatalf("non-retractable server issued a handle: %v", body)
	}
	resp, body = doReq(t, "DELETE", hs.URL+"/v1/constraints/default/1", "")
	if resp.StatusCode != http.StatusNotImplemented || body["kind"] != "not_retractable" {
		t.Fatalf("DELETE = %d %v, want 501 not_retractable", resp.StatusCode, body)
	}
}

// TestConditionalGET pins the ETag contract: least-solution and points-to
// reads carry a version-derived tag, If-None-Match on an unchanged graph is
// a 304 with no body, and a mutation invalidates the tag. The snapshot
// route carries no tag, because its counters move without a version bump.
func TestConditionalGET(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	postSCL(t, hs.URL, "cons a\na <= X", true)

	for _, path := range []string{"/v1/least-solution/default/X", "/v1/points-to/default/X"} {
		resp, _ := getJSON(t, hs.URL+path)
		etag := resp.Header.Get("ETag")
		if etag == "" {
			t.Fatalf("%s: no ETag", path)
		}

		req, _ := http.NewRequest("GET", hs.URL+path, nil)
		req.Header.Set("If-None-Match", etag)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := func() ([]byte, error) {
			defer resp.Body.Close()
			buf := make([]byte, 16)
			n, _ := resp.Body.Read(buf)
			return buf[:n], nil
		}()
		if resp.StatusCode != http.StatusNotModified || len(b) != 0 {
			t.Fatalf("%s conditional = %d with %d body bytes, want bare 304", path, resp.StatusCode, len(b))
		}
		if resp.Header.Get("ETag") != etag {
			t.Fatalf("%s: 304 ETag %q, want %q", path, resp.Header.Get("ETag"), etag)
		}

		// A weak-form or multi-candidate header still matches.
		req, _ = http.NewRequest("GET", hs.URL+path, nil)
		req.Header.Set("If-None-Match", `"v999", W/`+etag)
		if resp, err = http.DefaultClient.Do(req); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("%s weak conditional = %d, want 304", path, resp.StatusCode)
		}
	}

	// A second session and a duplicate edge move the snapshot's counters
	// but not the graph version, so a version tag must not answer 304.
	_, body := getJSON(t, hs.URL+"/v1/snapshot/default")
	version := body["version"]
	if resp, body := doReq(t, "POST", hs.URL+"/v1/constraints/beta?wait=1", "cons z"); resp.StatusCode != http.StatusOK {
		t.Fatalf("declaration-only batch = %d %v", resp.StatusCode, body)
	}
	postSCL(t, hs.URL, "a <= X", true)
	req, _ := http.NewRequest("GET", hs.URL+"/v1/snapshot/default", nil)
	req.Header.Set("If-None-Match", etagOf(uint64(version.(float64))))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("snapshot with a version tag = %d, want 200 (its counters moved)", resp.StatusCode)
	}
	if tag := resp.Header.Get("ETag"); tag != "" {
		t.Errorf("snapshot ETag = %q, want none", tag)
	}
	body = decodeBody(t, resp)
	if body["version"] != version || body["sessions"] != float64(2) {
		t.Fatalf("snapshot = version %v sessions %v, want version %v and 2 sessions", body["version"], body["sessions"], version)
	}

	// Mutating the graph moves the version, so the old tag misses.
	resp, _ = getJSON(t, hs.URL+"/v1/least-solution/default/X")
	old := resp.Header.Get("ETag")
	postSCL(t, hs.URL, "cons b\nb <= X", true)
	req, _ = http.NewRequest("GET", hs.URL+"/v1/least-solution/default/X", nil)
	req.Header.Set("If-None-Match", old)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	body = decodeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale tag = %d, want full 200", resp.StatusCode)
	}
	if resp.Header.Get("ETag") == old {
		t.Fatalf("ETag did not move with the version: %v", body["version"])
	}
}

// TestRetractionHammer races N writers — each adding a batch then
// immediately retracting it — against M snapshot/least-solution readers.
// The invariant at the end: every writer's constraints are gone, the
// permanently seeded facts survive, and nothing raced (the test earns its
// keep under -race).
func TestRetractionHammer(t *testing.T) {
	_, hs := newTestServer(t, retractableConfig())
	if resp, _ := postSCL(t, hs.URL, "cons keep\nkeep <= K", true); resp.StatusCode != http.StatusOK {
		t.Fatal("seeding failed")
	}

	const writers, readers, rounds = 4, 3, 8
	errs := make(chan error, writers+readers)
	var writeWG, readWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < rounds; i++ {
				prog := fmt.Sprintf("cons t%d_%d\nt%d_%d <= K", w, i, w, i)
				resp, body := postSCL(t, hs.URL, prog, true)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d round %d: POST = %d %v", w, i, resp.StatusCode, body)
					return
				}
				h := uint64(body["batch"].(float64))
				resp, body = doReq(t, "DELETE", fmt.Sprintf("%s/v1/constraints/default/%d", hs.URL, h), "")
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d round %d: DELETE = %d %v", w, i, resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if resp, _ := getJSON(t, hs.URL+"/v1/snapshot/default"); resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader: snapshot = %d", resp.StatusCode)
					return
				}
				if resp, _ := getJSON(t, hs.URL+"/v1/least-solution/default/K"); resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader: least-solution = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	_, body := getJSON(t, hs.URL+"/v1/least-solution/default/K")
	if fmt.Sprint(body["terms"]) != "[keep]" {
		t.Fatalf("LS(K) after hammer = %v, want only the seeded fact", body["terms"])
	}
	_, body = getJSON(t, hs.URL+"/v1/snapshot/default")
	if body["batches"].(float64) != 1 {
		t.Fatalf("live batches after hammer = %v, want 1 (the seed)", body["batches"])
	}
}
