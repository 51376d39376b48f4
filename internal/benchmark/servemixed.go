package benchmark

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"polce"
	"polce/internal/serve"
	"polce/internal/telemetry"
	"polce/internal/wal"
	"polce/internal/walreplay"
)

const (
	serveSession = "bench"
	// sloLatency is the serve-mixed latency limit: a request not answered
	// 2xx within this long of its due time misses the SLO.
	sloLatency = 50 * time.Millisecond
	// maxLag is how late the generator may send at its 99th percentile
	// before the report warns that the load fell behind its schedule.
	maxLag = sloLatency / 2
	// The open-loop rates: the writer alternates retracting a slot's
	// batch with posting its next version; the reader mixes least-solution
	// and points-to reads with a snapshot read every tenth request.
	writeEvery = 10 * time.Millisecond // 100 requests/s
	readEvery  = 5 * time.Millisecond  // 200 requests/s
)

// serveSlots is how many 32-constraint batches set-up pre-fills. Every
// retraction and every least-solution pass after a write still walks the
// whole graph, so the slot count sets how busy the server is at the fixed
// request rates: 64 slots keep it at about a sixth of a 2-CPU machine, where
// latency follows service time. At 256 slots the reader's connection is busy
// most of the time, requests queue behind each other, and the latency of
// runs at different seeds spread by a quarter.
func serveSlots(smoke bool) int {
	if smoke {
		return 16
	}
	return 64
}

// serveRun is a set-up serve-mixed workload: internal/serve self-hosted on
// loopback over a retractable IF-Online solver with the constraint log on,
// configured as polce-serve configures it (telemetry registry and solver
// metrics always on), plus the two client connections of the load.
type serveRun struct {
	p      params
	opt    polce.Options
	dir    string
	log    *wal.Log
	solver *polce.Solver
	reg    *telemetry.Registry
	sink   *telemetry.SolverMetrics
	srv    *serve.Server
	http   *http.Server
	served chan error
	base   string
	writer *http.Client
	reader *http.Client

	tw       *telemetry.TraceWriter // traced only: the server's spans, in memory
	traceBuf *bytes.Buffer
	twOffset int64 // µs from the benchmark recorder's origin to the trace writer's

	handles  []uint64 // each slot's live batch handle
	versions []int
	stopped  bool
}

// slotText is version v of slot k: 32 constraints — a chain of 30
// variables fed by the slot's atom, a cycle closed at a seeded point, and
// either a cross-link from the tail of one of the three preceding slots
// (one version in three) or a forward shortcut inside the chain. Links
// stay local, as in retract-churn, so a retraction's dirty cone is a few
// slots and not the whole graph.
func slotText(seed int64, slots, k, v int) string {
	rng := rand.New(rand.NewSource(derive(seed, 5, uint64(k), uint64(v))))
	x := func(k, i int) string { return fmt.Sprintf("s%d_x%d", k, i) }
	var b strings.Builder
	fmt.Fprintf(&b, "a%d <= %s\n", k, x(k, 0))
	for i := 1; i < slotVars; i++ {
		fmt.Fprintf(&b, "%s <= %s\n", x(k, i-1), x(k, i))
	}
	fmt.Fprintf(&b, "%s <= %s\n", x(k, slotVars-1), x(k, 1+rng.Intn(slotVars-2)))
	if rng.Intn(3) == 0 {
		from := (k + slots - 1 - rng.Intn(3)) % slots
		fmt.Fprintf(&b, "%s <= %s\n", x(from, slotVars-1), x(k, rng.Intn(slotVars)))
	} else {
		i := rng.Intn(slotVars - 2)
		fmt.Fprintf(&b, "%s <= %s\n", x(k, i), x(k, i+2+rng.Intn(slotVars-2-i)))
	}
	return b.String()
}

// slotVars is the chain length of a slot; with the atom, the cycle and the
// link it makes a 32-constraint batch.
const slotVars = 30

func newClient() *http.Client {
	// One connection per client: the load is two connections in total.
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func setupServe(ctx context.Context, p params) (*serveRun, error) {
	s := &serveRun{
		p:      p,
		opt:    polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: derive(p.seed, 4), Retractable: true},
		served: make(chan error, 1),
		writer: newClient(),
		reader: newClient(),
	}
	s.reg = telemetry.NewRegistry()
	s.sink = telemetry.NewSolverMetrics(s.reg)
	s.opt.Metrics = s.sink
	var err error
	if s.dir, err = os.MkdirTemp("", "polce-benchmark-wal-"); err != nil {
		return nil, err
	}
	if s.log, _, err = wal.Open(s.dir, wal.Options{Sync: wal.SyncOff, Meta: walreplay.OptionsMeta(s.opt)}); err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	var tracer *telemetry.Tracer
	if p.traced {
		s.traceBuf = &bytes.Buffer{}
		s.tw = telemetry.NewTraceWriter(s.traceBuf)
		s.twOffset = time.Since(p.rec.t0).Microseconds()
		tracer = telemetry.NewTracer(s.tw)
	}
	s.solver = polce.New(s.opt)
	s.srv = serve.New(serve.Config{
		Solver:        s.solver,
		Registry:      s.reg,
		SolverMetrics: s.sink,
		Tracer:        tracer,
		WAL:           s.log,
		WALSession:    serveSession,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.http.Serve(ln) }()

	if err := s.prefill(ctx); err != nil {
		s.close()
		return nil, fmt.Errorf("pre-fill: %w", err)
	}
	return s, nil
}

// prefill declares every slot's atom, posts version 0 of every slot and
// takes one snapshot, all over the writer connection.
func (s *serveRun) prefill(ctx context.Context) error {
	slots := serveSlots(s.p.smoke)
	var decls strings.Builder
	for k := 0; k < slots; k++ {
		fmt.Fprintf(&decls, "cons a%d\n", k)
	}
	if _, _, err := s.call(ctx, s.writer, http.MethodPost, s.constraintsPath()+"?wait=1", decls.String(), ""); err != nil {
		return err
	}
	s.handles = make([]uint64, slots)
	s.versions = make([]int, slots)
	for k := range s.handles {
		h, err := s.post(ctx, k, "")
		if err != nil {
			return err
		}
		s.handles[k] = h
	}
	_, _, err := s.call(ctx, s.reader, http.MethodGet, "/v1/snapshot/"+serveSession, "", "")
	return err
}

func (s *serveRun) constraintsPath() string { return "/v1/constraints/" + serveSession }

// post sends slot k's current version with ?wait=1 and returns the batch
// handle the server issued.
func (s *serveRun) post(ctx context.Context, k int, id string) (uint64, error) {
	body, _, err := s.call(ctx, s.writer, http.MethodPost, s.constraintsPath()+"?wait=1",
		slotText(s.p.seed, len(s.handles), k, s.versions[k]), id)
	if err != nil {
		return 0, err
	}
	var resp struct {
		Batch uint64 `json:"batch"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.Batch == 0 {
		return 0, fmt.Errorf("POST slot %d: no batch handle in %q", k, body)
	}
	return resp.Batch, nil
}

// call performs one request and fails on a transport error or a non-2xx
// status.
func (s *serveRun) call(ctx context.Context, c *http.Client, method, path, body, id string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, strings.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "text/plain")
	}
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return data, resp.StatusCode, fmt.Errorf("%s %s: %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, resp.StatusCode, nil
}

func (s *serveRun) measure(ctx context.Context, d time.Duration) (*phase, error) {
	ph := &phase{}
	slots := len(s.handles)
	st0 := s.solver.Stats()
	closure0, _ := s.sink.Phases.Get(telemetry.PhaseClosure)
	ls0, _ := s.sink.Phases.Get(telemetry.PhaseLeastSolution)
	frames0, bytes0 := s.log.Frames(), s.log.Bytes()

	var (
		mu       sync.Mutex
		errs     []string
		depthMax int
	)
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if len(errs) < 8 {
			errs = append(errs, err.Error())
		}
	}
	// Traced requests carry an X-Request-Id, the trace ID the server's
	// spans share.
	nextID := func(prefix string, i int) string {
		if s.p.rec == nil {
			return ""
		}
		return fmt.Sprintf("%s-%d", prefix, i)
	}
	editRng := rand.New(rand.NewSource(derive(s.p.seed, 6)))
	readRng := rand.New(rand.NewSource(derive(s.p.seed, 7)))
	var slot int
	write := func(i int) (string, string, bool) {
		depthMax = max(depthMax, s.srv.QueueLen())
		id := nextID("w", i)
		if i%2 == 0 {
			slot = editRng.Intn(slots)
			path := fmt.Sprintf("%s/%d", s.constraintsPath(), s.handles[slot])
			if _, _, err := s.call(ctx, s.writer, http.MethodDelete, path, "", id); err != nil {
				fail(err)
				return "delete", id, false
			}
			return "delete", id, true
		}
		s.versions[slot]++
		h, err := s.post(ctx, slot, id)
		if err != nil {
			fail(err)
			return "write", id, false
		}
		s.handles[slot] = h
		return "write", id, true
	}
	read := func(i int) (string, string, bool) {
		id := nextID("r", i)
		path := "/v1/snapshot/" + serveSession
		if i%10 != 9 {
			route := "least-solution"
			if i%2 == 1 {
				route = "points-to"
			}
			path = fmt.Sprintf("/v1/%s/%s/s%d_x%d", route, serveSession, readRng.Intn(slots), slotVars-1)
		}
		if _, _, err := s.call(ctx, s.reader, http.MethodGet, path, "", id); err != nil {
			fail(err)
			return "read", id, false
		}
		return "read", id, true
	}

	start := time.Now().Add(time.Millisecond)
	var writes, reads []sent
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); writes = openLoop(ctx, start, d, writeEvery, write) }()
	go func() { defer wg.Done(); reads = openLoop(ctx, start, d, readEvery, read) }()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	roundtrip := map[string]time.Duration{}
	for _, r := range append(writes, reads...) {
		ph.attempted++
		ph.ops = append(ph.ops, r.latency())
		ph.lags = append(ph.lags, r.lag())
		if r.kind != "" { // "" marks a request the loop gave up sending
			ph.kind(r.kind, r.latency())
		}
		if !r.ok {
			ph.failed++
		}
		if !r.ok || r.latency() > sloLatency {
			ph.sloMisses++
		}
		if r.id == "" {
			continue
		}
		if root := s.p.rec.root(r.id, "loadgen.request", r.due, r.latency()); root != nil {
			root.child("loadgen.wait", r.due, r.lag())
			root.child("net.http", r.at, r.done.Sub(r.at))
			roundtrip[r.id] = r.done.Sub(r.at)
		}
	}
	for _, e := range errs {
		ph.notes = append(ph.notes, "request failed: "+e)
	}
	// A generator that sends late no longer applies the stated rates. Its
	// lateness is already charged to every latency, which counts from the
	// due time, and the outputs are still checked, so the run stays valid
	// and the report says so: on a shared host a slow stretch of the host
	// alone can push the lag past the limit.
	if lag := Quantile(ms(ph.lags), 0.99); lag > msOf(maxLag) {
		ph.notes = append(ph.notes, fmt.Sprintf("generator lag p99 %.1fms exceeds %s: the load fell behind its schedule", lag, maxLag))
	}
	ph.notes = append(ph.notes, fmt.Sprintf("serve-mixed: %d writes/deletes and %d reads over %d slots, %d SLO miss(es) at %s",
		len(writes), len(reads), slots, ph.sloMisses, sloLatency))

	if s.p.traced {
		n := float64(len(ph.ops))
		closure1, _ := s.sink.Phases.Get(telemetry.PhaseClosure)
		ls1, _ := s.sink.Phases.Get(telemetry.PhaseLeastSolution)
		ph.setLayer("core.closure_ms", msOf(closure1-closure0)/n)
		ph.setLayer("core.ls_ms", msOf(ls1-ls0)/n)
		setSolverLayers(ph, s.solver, s.sink, statsDelta(s.solver.Stats(), st0), n)
		if c := s.sink.RetractConeFrac.Count(); c > 0 {
			ph.setLayer("core.retract_cone_frac", s.sink.RetractConeFrac.Sum()/float64(c))
		}
		ph.setLayer("serve.queue_depth_max", float64(depthMax))
		ph.setLayer("wal.bytes_per_batch", ratio(float64(s.log.Bytes()-bytes0), float64(s.log.Frames()-frames0)))
	}
	// Stop the server so its spans are complete; verify then audits the log.
	if err := s.stop(ctx); err != nil {
		return nil, err
	}
	if s.p.traced {
		if err := s.serverLayers(ph, roundtrip); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// serverLayers reads the serve layer's own spans — one tree per request,
// keyed by the X-Request-Id the benchmark sent — into the serve, net, wal
// and core metrics.
func (s *serveRun) serverLayers(ph *phase, roundtrip map[string]time.Duration) error {
	recs, err := telemetry.ReadTrace(s.traceBuf)
	if err != nil {
		return err
	}
	byTrace := map[string][]telemetry.TraceRecord{}
	for i := range recs {
		recs[i].TMicros += s.twOffset
		byTrace[recs[i].Trace] = append(byTrace[recs[i].Trace], recs[i])
	}
	ph.served = recs
	var post, del, get, admit, wait, drain, retract, handoff, capture, lsPass, gap []float64
	var captures, fresh int
	for trace, spans := range byTrace {
		named := map[string]telemetry.TraceRecord{}
		for _, sp := range spans {
			named[sp.Name] = sp
		}
		root, ok := named["http"]
		if !ok {
			continue
		}
		dur := func(name string) float64 { return float64(named[name].DurMicros) / 1000 }
		if rt, ok := roundtrip[trace]; ok {
			gap = append(gap, msOf(rt)-dur("http"))
		}
		switch root.Attrs["route"] {
		case "constraints":
			post = append(post, dur("http"))
			admit = append(admit, dur("http")-dur("await-apply"))
			wait = append(wait, dur("queue-wait"))
			drain = append(drain, dur("ingest-drain"))
			handoff = append(handoff, dur("result-handoff"))
		case "retract":
			del = append(del, dur("http"))
			wait = append(wait, dur("queue-wait"))
			retract = append(retract, dur("retract-drain"))
		default:
			get = append(get, dur("http"))
			if _, ok := named["snapshot-capture"]; ok {
				captures++
				capture = append(capture, dur("snapshot-capture"))
				if _, rebuilt := named["ls-pass"]; rebuilt {
					lsPass = append(lsPass, dur("ls-pass"))
				} else {
					fresh++
				}
			}
		}
	}
	ph.setLayer("serve.post_http_ms_p50", Quantile(post, 0.5))
	ph.setLayer("serve.delete_http_ms_p50", Quantile(del, 0.5))
	ph.setLayer("serve.get_http_ms_p50", Quantile(get, 0.5))
	ph.setLayer("serve.admit_ms_p50", Quantile(admit, 0.5))
	ph.setLayer("serve.queue_wait_ms_p50", Quantile(wait, 0.5))
	ph.setLayer("serve.queue_wait_ms_p99", Quantile(wait, 0.99))
	ph.setLayer("serve.ingest_drain_ms_p50", Quantile(drain, 0.5))
	ph.setLayer("core.retract_ms_p50", Quantile(retract, 0.5))
	ph.setLayer("serve.handoff_ms_p50", Quantile(handoff, 0.5))
	ph.setLayer("serve.snapshot_capture_ms_p50", Quantile(capture, 0.5))
	ph.setLayer("serve.ls_pass_ms_p50", Quantile(lsPass, 0.5))
	// A capture without a least-solution pass found the graph unchanged
	// since the last one and reused the cached snapshot.
	ph.setLayer("serve.snapshot_hit_frac", ratio(float64(fresh), float64(captures)))
	ph.setLayer("net.client_gap_ms_p50", Quantile(gap, 0.5))
	ph.setLayer("wal.append_ms_p50", 1000*walAppendP50(s.reg.Snapshot()))
	return nil
}

// walAppendP50 estimates the median constraint-log append time, in
// seconds, from the registry histogram the serve layer fills (the upper
// bound of the bucket holding the median).
func walAppendP50(snap map[string]any) float64 {
	h, ok := snap["polce_serve_wal_append_seconds"].(map[string]any)
	if !ok {
		return 0
	}
	buckets, _ := h["buckets"].([]map[string]any)
	total, _ := h["count"].(uint64)
	var cum uint64
	for _, b := range buckets {
		n, _ := b["n"].(uint64)
		cum += n
		if total > 0 && 2*cum >= total {
			if le, ok := b["le"].(float64); ok {
				return le
			}
			max, _ := h["max"].(float64)
			return max
		}
	}
	return 0
}

// stop shuts the HTTP listener and then the serve layer down (draining the
// ingestion queue), and closes the in-memory trace.
func (s *serveRun) stop(ctx context.Context) error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	s.writer.CloseIdleConnections()
	s.reader.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
	defer cancel()
	if s.http != nil {
		if err := s.http.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-s.served; err != nil && err != http.ErrServerClosed {
			return err
		}
	}
	if s.srv != nil {
		if err := s.srv.Shutdown(ctx); err != nil {
			return err
		}
	}
	if s.tw != nil {
		return s.tw.Close()
	}
	return nil
}

// verify replays the server's own constraint log standalone and compares
// the recovered graph with the live one.
func (s *serveRun) verify(ctx context.Context) ([]string, error) {
	if err := s.stop(ctx); err != nil {
		return nil, err
	}
	if err := s.log.Close(); err != nil {
		return nil, err
	}
	s.log = nil
	rec, err := wal.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	replayOpt := s.opt
	replayOpt.Metrics = nil
	replayed, _, _, err := walreplay.Replay(rec.Frames, replayOpt)
	if err != nil {
		return nil, err
	}
	return walreplay.Fingerprint(s.solver, 64).StateDiff(walreplay.Fingerprint(replayed, 64)), nil
}

func (s *serveRun) close() error {
	err := s.stop(context.Background())
	if s.log != nil {
		if cerr := s.log.Close(); err == nil {
			err = cerr
		}
		s.log = nil
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
