package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"polce"
	"polce/internal/telemetry"
	"polce/internal/wal"
	"polce/internal/walreplay"
)

// walOptions are the solver options every WAL test pins — cycle
// elimination on, fixed seed, so replay equivalence exercises the seeded
// edge orientations too.
func walOptions() polce.Options {
	return polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 42}
}

// walCorpus is a deterministic batch stream: a declaration-only opener
// (replay must preserve vocabulary order), then var-var chains that close
// into cycles among V0..V7 plus constructed sources, so the replayed graph
// exercises parsing, lowering, closure and online cycle elimination.
func walCorpus() []string {
	batches := []string{"cons a; cons b; cons ref(+)"}
	for i := 0; i < 12; i++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "a <= V%d\n", i%8)
		fmt.Fprintf(&sb, "V%d <= V%d\n", i%8, (i*5+3)%8)
		fmt.Fprintf(&sb, "ref(V%d) <= R%d\n", (i*3)%8, i%4)
		if i%3 == 0 {
			fmt.Fprintf(&sb, "V%d <= V%d\n", (i+1)%8, i%8)
		}
		batches = append(batches, sb.String())
	}
	return batches
}

// openWAL opens a constraint log pinned to opt's replay meta.
func openWAL(t *testing.T, dir string, opt polce.Options, sync wal.SyncPolicy) (*wal.Log, *wal.Recovered) {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Options{Sync: sync, Meta: walreplay.OptionsMeta(opt)})
	if err != nil {
		t.Fatalf("wal.Open(%s): %v", dir, err)
	}
	return l, rec
}

// TestWALRecoverEquivalence is the kill-and-recover contract: ingest a
// prefix of the corpus through a WAL-backed server, "crash" it (abandon it
// without Shutdown — with SyncAlways every acked frame is already on
// disk), then recover into a fresh server and check the recovered graph is
// bit-identical — version, partition signature, sampled least solutions,
// mutation counters — to both a standalone walreplay of the log and an
// uninterrupted live server that ingested the same prefix.
func TestWALRecoverEquivalence(t *testing.T) {
	opt := walOptions()
	dir := t.TempDir()
	corpus := walCorpus()
	prefix := corpus[:9] // stop mid-stream: the crash point

	// Server A: WAL-backed, ingests the prefix, then vanishes.
	logA, rec := openWAL(t, dir, opt, wal.SyncAlways)
	if len(rec.Frames) != 0 {
		t.Fatalf("fresh log recovered %d frames", len(rec.Frames))
	}
	srvA := New(Config{Solver: polce.New(opt), WAL: logA})
	hsA := httptest.NewServer(srvA.Handler())
	for i, b := range prefix {
		if resp, body := postSCL(t, hsA.URL, b, true); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d = %d %v", i, resp.StatusCode, body)
		}
	}
	hsA.Close() // no Shutdown, no log Close: the process just died

	// Recovery: reopen the log, replay through a fresh server.
	logB, recB := openWAL(t, dir, opt, wal.SyncAlways)
	defer logB.Close()
	if len(recB.Frames) != len(prefix) || recB.TruncatedBytes != 0 {
		t.Fatalf("recovered %d frames, truncated %d; want %d/0",
			len(recB.Frames), recB.TruncatedBytes, len(prefix))
	}
	srvB := New(Config{Solver: polce.New(opt), WAL: logB})
	if _, err := srvB.Recover(recB.Frames); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := srvB.walReplayed.Load(); got != int64(len(prefix)) {
		t.Fatalf("walReplayed = %d, want %d", got, len(prefix))
	}

	// Reference 1: standalone replay of the same frames.
	refSolver, _, _, err := walreplay.Replay(recB.Frames, opt)
	if err != nil {
		t.Fatalf("walreplay.Replay: %v", err)
	}

	// Reference 2: an uninterrupted live server over the same prefix.
	srvC, hsC := newTestServer(t, Config{Solver: polce.New(opt)})
	for i, b := range prefix {
		if resp, body := postSCL(t, hsC.URL, b, true); resp.StatusCode != http.StatusOK {
			t.Fatalf("reference batch %d = %d %v", i, resp.StatusCode, body)
		}
	}

	recovered := walreplay.Fingerprint(srvB.solver, 32)
	replayed := walreplay.Fingerprint(refSolver, 32)
	live := walreplay.Fingerprint(srvC.solver, 32)
	if diffs := recovered.Diff(replayed); len(diffs) != 0 {
		t.Fatalf("recovered server vs standalone replay:\n  %s", strings.Join(diffs, "\n  "))
	}
	if diffs := recovered.Diff(live); len(diffs) != 0 {
		t.Fatalf("recovered server vs uninterrupted live run:\n  %s", strings.Join(diffs, "\n  "))
	}
	if recovered.Version == 0 || recovered.PartitionSig == "" {
		t.Fatalf("degenerate manifest: %+v", recovered)
	}

	// The recovered server keeps serving: the log continues the sequence
	// and new ingestion lands on top of the replayed graph.
	hsB := httptest.NewServer(srvB.Handler())
	defer hsB.Close()
	resp, body := postSCL(t, hsB.URL, corpus[9], true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery ingest = %d %v", resp.StatusCode, body)
	}
	if logB.LastSeq() != uint64(len(prefix)+1) {
		t.Fatalf("post-recovery LastSeq = %d, want %d", logB.LastSeq(), len(prefix)+1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srvB.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestWALTornTailRecovery simulates a crash mid-frame-write: the log's
// tail is chopped inside the last frame, and startup must truncate the
// torn frame and recover the intact prefix — never fail.
func TestWALTornTailRecovery(t *testing.T) {
	opt := walOptions()
	dir := t.TempDir()
	corpus := walCorpus()[:5]

	logA, _ := openWAL(t, dir, opt, wal.SyncAlways)
	srvA := New(Config{Solver: polce.New(opt), WAL: logA})
	hsA := httptest.NewServer(srvA.Handler())
	for i, b := range corpus {
		if resp, body := postSCL(t, hsA.URL, b, true); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d = %d %v", i, resp.StatusCode, body)
		}
	}
	hsA.Close()

	// Tear the last frame: remove 3 bytes from inside its payload.
	path := filepath.Join(dir, "wal.log")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	logB, recB := openWAL(t, dir, opt, wal.SyncAlways)
	defer logB.Close()
	if recB.TruncatedBytes == 0 {
		t.Fatal("torn tail not detected")
	}
	if len(recB.Frames) != len(corpus)-1 {
		t.Fatalf("recovered %d frames, want the %d-frame prefix", len(recB.Frames), len(corpus)-1)
	}
	srvB := New(Config{Solver: polce.New(opt), WAL: logB})
	if _, err := srvB.Recover(recB.Frames); err != nil {
		t.Fatalf("Recover after torn tail: %v", err)
	}

	// The recovered graph equals a replay of the intact prefix, and the
	// server answers queries over it.
	refSolver, _, _, err := walreplay.Replay(recB.Frames, opt)
	if err != nil {
		t.Fatal(err)
	}
	hsB := httptest.NewServer(srvB.Handler())
	defer hsB.Close()
	if resp, body := getJSON(t, hsB.URL+"/v1/least-solution/default/V0"); resp.StatusCode != http.StatusOK || len(body["terms"].([]any)) == 0 {
		t.Fatalf("LS(V0) after recovery = %d %v", resp.StatusCode, body)
	}
	recovered := walreplay.Fingerprint(srvB.solver, 32)
	if diffs := recovered.Diff(walreplay.Fingerprint(refSolver, 32)); len(diffs) != 0 {
		t.Fatalf("torn-tail recovery diverged from prefix replay:\n  %s", strings.Join(diffs, "\n  "))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srvB.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestWALMetaMismatchRefusesOpen: reopening a log under different solver
// options is a configuration error, not a torn tail — it must fail loudly
// instead of replaying into a solver that would orient edges differently.
func TestWALMetaMismatchRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	opt := walOptions()
	l, _ := openWAL(t, dir, opt, wal.SyncOff)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	other := opt
	other.Seed = 7
	if _, _, err := wal.Open(dir, wal.Options{Meta: walreplay.OptionsMeta(other)}); err == nil {
		t.Fatal("Open accepted a log recorded under different options")
	}
}

// TestQueueOldestAgeGauge pins the satellite bugfix: with the ingester
// parked and batches queued, the oldest-age gauge must report the queue
// head's age — the old applyingSince-only derivation read 0 here, hiding
// a stalled ingester behind an idle-looking gauge.
func TestQueueOldestAgeGauge(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newServer(Config{
		Solver:     polce.New(walOptions()),
		Registry:   reg,
		QueueDepth: 4,
	}) // no ingester: the queue can only grow

	if got := scrapeGauge(t, reg, "polce_serve_queue_oldest_age_seconds"); got != 0 {
		t.Fatalf("idle gauge = %v, want 0", got)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.accept(context.Background(), wal.FrameConstraints, s.cfg.WALSession, fmt.Sprintf("A%d <= B%d", i, i), nil); err != nil {
			t.Fatalf("accept %d: %v", i, err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got := scrapeGauge(t, reg, "polce_serve_queue_oldest_age_seconds"); got < 0.02 {
		t.Fatalf("stalled-queue gauge = %v, want >= 0.02 (the queue head's age)", got)
	}

	// Draining the queue the way the ingester does returns the gauge to 0.
	for i := 0; i < 2; i++ {
		job := <-s.queue
		s.ages.pop()
		job.done <- ingestResult{}
	}
	if got := scrapeGauge(t, reg, "polce_serve_queue_oldest_age_seconds"); got != 0 {
		t.Fatalf("drained gauge = %v, want 0", got)
	}
}

// scrapeGauge reads one gauge value from the registry's Prometheus
// exposition.
func scrapeGauge(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("gauge %s not found in exposition", name)
	return 0
}

// TestWALFailurePoisonsIngestion: once a log append fails, every further
// write must refuse with wal_failed (500) — the log on disk stays a
// consistent prefix of the acked stream — while reads keep answering.
func TestWALFailurePoisonsIngestion(t *testing.T) {
	opt := walOptions()
	dir := t.TempDir()
	l, _ := openWAL(t, dir, opt, wal.SyncOff)
	s, hs := newTestServer(t, Config{Solver: polce.New(opt), WAL: l})
	defer l.Close()

	if resp, body := postSCL(t, hs.URL, "cons a\na <= X", true); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest = %d %v", resp.StatusCode, body)
	}
	s.walFailed.Store(true) // simulate a failed append/fsync
	resp, body := postSCL(t, hs.URL, "a <= Y", false)
	if resp.StatusCode != http.StatusInternalServerError || body["kind"] != "wal_failed" {
		t.Fatalf("poisoned ingest = %d %v, want 500 wal_failed", resp.StatusCode, body)
	}
	if resp, _ := getJSON(t, hs.URL+"/v1/least-solution/default/X"); resp.StatusCode != http.StatusOK {
		t.Fatalf("read during poisoning = %d, want 200", resp.StatusCode)
	}
}

// TestWALRecoverWithRetractions extends the kill-and-recover contract to
// retraction frames: a retractable WAL-backed server ingests across two
// sessions, retracts a batch, logs one failed DELETE (a 404 whose frame
// replay must skip), then crashes. The recovered server, a standalone
// replay and an uninterrupted live run must agree bit-for-bit, and a
// pre-crash batch must stay retractable through the recovered server.
func TestWALRecoverWithRetractions(t *testing.T) {
	opt := walOptions()
	opt.Retractable = true
	dir := t.TempDir()

	// drive replays the write sequence against one server, returning the
	// handle of the batch left live for post-crash retraction.
	drive := func(t *testing.T, base string) uint64 {
		t.Helper()
		post := func(session, prog string) uint64 {
			resp, body := doReq(t, "POST", base+"/v1/constraints/"+session+"?wait=1", prog)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s = %d %v", session, resp.StatusCode, body)
			}
			return uint64(body["batch"].(float64))
		}
		post("default", "cons a; cons b; cons ref(+)")
		chain := post("default", "a <= V0\nV0 <= V1")
		aux := post("aux", "cons c\nc <= W")
		keep := post("default", "b <= V0")
		if resp, body := doReq(t, "DELETE", fmt.Sprintf("%s/v1/constraints/default/%d", base, chain), ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE = %d %v", resp.StatusCode, body)
		}
		// The repeated DELETE is refused live (404) but its frame is already
		// logged; replay must skip it the same way.
		if resp, body := doReq(t, "DELETE", fmt.Sprintf("%s/v1/constraints/default/%d", base, chain), ""); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("double DELETE = %d %v, want 404", resp.StatusCode, body)
		}
		// A cross-session DELETE targets a handle that is live but owned by
		// another session: refused live (404), frame logged, and replay must
		// refuse it for the same reason — liveness alone is not enough.
		if resp, body := doReq(t, "DELETE", fmt.Sprintf("%s/v1/constraints/default/%d", base, aux), ""); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("cross-session DELETE = %d %v, want 404", resp.StatusCode, body)
		}
		post("default", "V0 <= V2")
		return keep
	}

	// Server A: WAL-backed, runs the sequence, then vanishes mid-flight.
	logA, _ := openWAL(t, dir, opt, wal.SyncAlways)
	srvA := New(Config{Solver: polce.New(opt), WAL: logA})
	hsA := httptest.NewServer(srvA.Handler())
	drive(t, hsA.URL)
	hsA.Close()

	logB, recB := openWAL(t, dir, opt, wal.SyncAlways)
	defer logB.Close()
	if len(recB.Frames) != 8 || recB.TruncatedBytes != 0 {
		t.Fatalf("recovered %d frames, truncated %d; want 8/0", len(recB.Frames), recB.TruncatedBytes)
	}
	srvB := New(Config{Solver: polce.New(opt), WAL: logB})
	if _, err := srvB.Recover(recB.Frames); err != nil {
		t.Fatalf("Recover: %v", err)
	}

	refSolver, _, _, err := walreplay.Replay(recB.Frames, opt)
	if err != nil {
		t.Fatalf("walreplay.Replay: %v", err)
	}
	srvC, hsC := newTestServer(t, Config{Solver: polce.New(opt)})
	keep := drive(t, hsC.URL)

	recovered := walreplay.Fingerprint(srvB.solver, 32)
	if diffs := recovered.Diff(walreplay.Fingerprint(refSolver, 32)); len(diffs) != 0 {
		t.Fatalf("recovered server vs standalone replay:\n  %s", strings.Join(diffs, "\n  "))
	}
	if diffs := recovered.Diff(walreplay.Fingerprint(srvC.solver, 32)); len(diffs) != 0 {
		t.Fatalf("recovered server vs uninterrupted live run:\n  %s", strings.Join(diffs, "\n  "))
	}

	// The retraction's effect is visible through the recovered server: the
	// chain batch is gone, the surviving justification stands.
	hsB := httptest.NewServer(srvB.Handler())
	defer hsB.Close()
	if _, body := getJSON(t, hsB.URL+"/v1/least-solution/default/V1"); len(body["terms"].([]any)) != 0 {
		t.Fatalf("LS(V1) after recovery = %v, want empty (retracted)", body["terms"])
	}
	if _, body := getJSON(t, hsB.URL+"/v1/least-solution/default/V0"); fmt.Sprint(body["terms"]) != "[b]" {
		t.Fatalf("LS(V0) after recovery = %v, want [b]", body["terms"])
	}
	if _, body := getJSON(t, hsB.URL+"/v1/least-solution/aux/W"); fmt.Sprint(body["terms"]) != "[c]" {
		t.Fatalf("aux session after recovery: LS(W) = %v, want [c]", body["terms"])
	}

	// Handles survive the crash: the recovered server retracts a pre-crash
	// batch by its original handle, and both its LS cone and the live
	// reference (same retraction applied) stay in lockstep.
	if resp, body := doReq(t, "DELETE", fmt.Sprintf("%s/v1/constraints/default/%d", hsB.URL, keep), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery DELETE = %d %v", resp.StatusCode, body)
	}
	if resp, body := doReq(t, "DELETE", fmt.Sprintf("%s/v1/constraints/default/%d", hsC.URL, keep), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("reference DELETE = %d %v", resp.StatusCode, body)
	}
	if _, body := getJSON(t, hsB.URL+"/v1/least-solution/default/V0"); len(body["terms"].([]any)) != 0 {
		t.Fatalf("LS(V0) after post-recovery retraction = %v, want empty", body["terms"])
	}
	if diffs := walreplay.Fingerprint(srvB.solver, 32).Diff(walreplay.Fingerprint(srvC.solver, 32)); len(diffs) != 0 {
		t.Fatalf("post-recovery retraction diverged from live reference:\n  %s", strings.Join(diffs, "\n  "))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srvB.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverAndReplayAgreeOnNonRetractableLog feeds one non-retractable
// log holding a constraints frame and a retract frame to Recover and to
// walreplay.Replay. A non-retractable server refuses a DELETE before
// logging it, and the log's meta pins retractable, so such a frame means
// a foreign or damaged log: both must fail the same way and name the
// frame, as they do for a constraints frame that does not parse.
func TestRecoverAndReplayAgreeOnNonRetractableLog(t *testing.T) {
	opt := walOptions()
	frames := []wal.Frame{
		{Seq: 1, Kind: wal.FrameConstraints, Session: "default", Text: "cons a\na <= X"},
		{Seq: 2, Kind: wal.FrameRetract, Session: "default", Text: walreplay.FormatRetractText([]uint64{1})},
	}
	_, recoverErr := newServer(Config{Solver: polce.New(opt)}).Recover(frames)
	_, _, _, replayErr := walreplay.Replay(frames, opt)
	for name, err := range map[string]error{"Recover": recoverErr, "Replay": replayErr} {
		if !errors.Is(err, polce.ErrNotRetractable) || !strings.Contains(fmt.Sprint(err), "frame 2") {
			t.Errorf("%s = %v, want ErrNotRetractable naming frame 2", name, err)
		}
	}
	if fmt.Sprint(recoverErr) != fmt.Sprint(replayErr) {
		t.Errorf("Recover and Replay disagree: %v vs %v", recoverErr, replayErr)
	}
}
