package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polce"
	"polce/internal/serve"
	"polce/internal/telemetry"
)

// ServeLoadOptions configures the service load generator.
type ServeLoadOptions struct {
	// Addr targets an already-running polce-serve instance
	// ("host:port"). Empty self-hosts an in-process server on a loopback
	// port, which is the race-detector-friendly default.
	Addr string
	// Readers is the number of concurrent query goroutines. Zero means 8.
	Readers int
	// Duration is the minimum length of the read phase. Zero means 3s.
	Duration time.Duration
	// MinQueries keeps the run going past Duration until this many queries
	// have completed, so the reported sustained rate is backed by a floor
	// of actual traffic on slow machines too. Zero means 10000; negative
	// disables the floor.
	MinQueries int
	// Batch is the number of constraints per ingestion POST. Zero means 32.
	Batch int
	// Seed is the solver's variable-order seed for the self-hosted server.
	Seed int64
	// Conditional makes each reader a well-behaved re-polling client: it
	// remembers the last ETag it saw per path and sends it back as
	// If-None-Match, so an unchanged graph answers 304 with no body. The
	// report then includes the not-modified ratio — the fraction of reads
	// the server satisfied without rendering a response.
	Conditional bool
	// TracePath, when set, wires a telemetry.Tracer into the self-hosted
	// server, writes every request's spans to this NDJSON file, and appends
	// a trace-derived breakdown to the report: how much of the ingest p50
	// was queue wait versus solve time. Requires self-hosting (empty Addr) —
	// an external server's spans land in its own trace file, not ours.
	TracePath string
}

func (o ServeLoadOptions) withDefaults() ServeLoadOptions {
	if o.Readers <= 0 {
		o.Readers = 8
	}
	if o.Duration <= 0 {
		o.Duration = 3 * time.Second
	}
	if o.MinQueries == 0 {
		o.MinQueries = 10000
	}
	if o.Batch <= 0 {
		o.Batch = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// serveLoadStats aggregates one run: per-query latencies and error counts
// from the readers, plus the writer's progress.
type serveLoadStats struct {
	mu        sync.Mutex
	latencies []time.Duration

	queries     atomic.Int64
	errors      atomic.Int64
	batches     atomic.Int64
	notModified atomic.Int64
}

func (st *serveLoadStats) record(d time.Duration) {
	st.mu.Lock()
	st.latencies = append(st.latencies, d)
	st.mu.Unlock()
}

func (st *serveLoadStats) percentile(p float64) time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.latencies) == 0 {
		return 0
	}
	sort.Slice(st.latencies, func(i, j int) bool { return st.latencies[i] < st.latencies[j] })
	idx := int(p * float64(len(st.latencies)-1))
	return st.latencies[idx]
}

// RunServeLoad races opt.Readers query goroutines against one ingestion
// writer through real HTTP and reports sustained QPS and the p50/p99 query
// latency. With no Addr it self-hosts a serve.Server for the run and
// drains it afterwards, so the whole exercise (including the server) sits
// under the race detector when the binary is built with -race.
func RunServeLoad(w io.Writer, opt ServeLoadOptions) error {
	opt = opt.withDefaults()

	base := "http://" + opt.Addr
	var shutdown func() error
	if opt.TracePath != "" && opt.Addr != "" {
		return fmt.Errorf("serve-load: -serve-trace requires the self-hosted server (leave Addr empty)")
	}
	if opt.Addr == "" {
		// The self-hosted server reads with 2ms bounded staleness: under a
		// saturating writer every graph-version bump would otherwise force
		// an O(vars) snapshot capture per read.
		solverOpt := polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: opt.Seed}
		cfg := serve.Config{
			QueueDepth:       256,
			SnapshotMaxStale: 2 * time.Millisecond,
		}
		var tw *telemetry.TraceWriter
		if opt.TracePath != "" {
			var err error
			if tw, err = telemetry.CreateTrace(opt.TracePath); err != nil {
				return fmt.Errorf("creating trace: %w", err)
			}
			reg := telemetry.NewRegistry()
			sm := telemetry.NewSolverMetrics(reg)
			solverOpt.Metrics = sm
			cfg.Registry = reg
			cfg.Tracer = telemetry.NewTracer(tw)
			cfg.SolverMetrics = sm
		}
		cfg.Solver = polce.New(solverOpt)
		srv := serve.New(cfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(ln)
		base = "http://" + ln.Addr().String()
		shutdown = func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := httpSrv.Shutdown(ctx); err != nil {
				return err
			}
			if err := srv.Shutdown(ctx); err != nil {
				return err
			}
			if tw != nil {
				return tw.Close()
			}
			return nil
		}
		fmt.Fprintf(w, "serve-load: self-hosted polce-serve on %s\n", ln.Addr())
	}

	// The default transport keeps only two idle connections per host, which
	// would make every reader redial constantly; give each goroutine its
	// own persistent connection instead.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = opt.Readers + 4
	transport.MaxIdleConnsPerHost = opt.Readers + 4
	client := &http.Client{Timeout: 10 * time.Second, Transport: transport}

	// Seed the program so every reader has a live variable from the start.
	if err := postBatch(client, base, "cons a0\na0 <= v0", true); err != nil {
		if shutdown != nil {
			_ = shutdown()
		}
		return fmt.Errorf("seeding program: %w", err)
	}

	var (
		st        serveLoadStats
		stopWrite = make(chan struct{}) // closed when Duration elapses
		stop      = make(chan struct{}) // closed once the query floor is met too
		wg        sync.WaitGroup
	)

	// The writer streams bounded constraint clusters, opt.Batch constraints
	// per POST: each batch is a fresh small chain seeded by its own atom and
	// linked back to the shared v0 atom. Least solutions stay small this
	// way — one endless chain would make both ingestion and snapshot
	// capture superlinear, which benchmarks the workload's density, not the
	// service. Each batch is synchronous so ingestion paces itself and a
	// full queue shows up as backpressure here rather than dropped work.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			select {
			case <-stopWrite:
				return
			default:
			}
			var b strings.Builder
			fmt.Fprintf(&b, "cons b%d\nb%d <= w%d_0; a0 <= w%d_0\n", k, k, k, k)
			for i := 2; i < opt.Batch; i++ {
				fmt.Fprintf(&b, "w%d_%d <= w%d_%d\n", k, i-2, k, i-1)
			}
			if err := postBatch(client, base, b.String(), true); err != nil {
				st.errors.Add(1)
				return
			}
			st.batches.Add(1)
		}
	}()

	paths := []string{"/v1/least-solution/default/v0", "/v1/points-to/default/v0", "/v1/snapshot/default", "/v1/healthz"}
	for r := 0; r < opt.Readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Each reader remembers the last ETag per path, like a real
			// re-polling client with its own cache.
			etags := make([]string, len(paths))
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := i % len(paths)
				req, err := http.NewRequest(http.MethodGet, base+paths[p], nil)
				if err != nil {
					st.errors.Add(1)
					continue
				}
				if opt.Conditional && etags[p] != "" {
					req.Header.Set("If-None-Match", etags[p])
				}
				begin := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					st.errors.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				st.record(time.Since(begin))
				st.queries.Add(1)
				switch resp.StatusCode {
				case http.StatusOK:
					if tag := resp.Header.Get("ETag"); tag != "" {
						etags[p] = tag
					}
				case http.StatusNotModified:
					st.notModified.Add(1)
				default:
					st.errors.Add(1)
				}
			}
		}(r)
	}

	// Phase one races readers against the writer for Duration; if the
	// query floor is not yet met (slow machine, race-instrumented build),
	// the writer stops and readers keep draining queries against the
	// now-static graph until it is.
	start := time.Now()
	time.Sleep(opt.Duration)
	close(stopWrite)
	for opt.MinQueries > 0 && st.queries.Load() < int64(opt.MinQueries) {
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	if shutdown != nil {
		if err := shutdown(); err != nil {
			return fmt.Errorf("draining self-hosted server: %w", err)
		}
	}

	queries := st.queries.Load()
	qps := float64(queries) / elapsed.Seconds()
	fmt.Fprintf(w, "serve-load: %d readers vs 1 writer for %s\n", opt.Readers, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  queries   %10d   (%.0f QPS)\n", queries, qps)
	fmt.Fprintf(w, "  latency   p50 %8s   p99 %8s\n",
		st.percentile(0.50).Round(time.Microsecond), st.percentile(0.99).Round(time.Microsecond))
	fmt.Fprintf(w, "  ingested  %10d batches (%d constraints)\n", st.batches.Load(), st.batches.Load()*int64(opt.Batch))
	if opt.Conditional {
		nm := st.notModified.Load()
		var ratio float64
		if queries > 0 {
			ratio = float64(nm) / float64(queries)
		}
		fmt.Fprintf(w, "  not-mod   %10d   (%.0f%% of reads answered 304 from the ETag)\n", nm, ratio*100)
	}
	fmt.Fprintf(w, "  errors    %10d\n", st.errors.Load())
	if opt.TracePath != "" {
		bd, err := readServeTrace(opt.TracePath)
		if err != nil {
			return fmt.Errorf("serve-load: reading trace: %w", err)
		}
		fmt.Fprintf(w, "  trace     %s: %d spans, %d/%d ingest requests with linked queue-wait+drain spans\n",
			opt.TracePath, bd.spans, bd.linked, bd.ingests)
		fmt.Fprintf(w, "  ingest    p50 http %s, apply wait %s = queue-wait %s + ingest-drain %s + handoff %s (covers %.0f%%)\n",
			bd.p50HTTP.Round(time.Microsecond), bd.p50Await.Round(time.Microsecond),
			bd.p50Wait.Round(time.Microsecond), bd.p50Drain.Round(time.Microsecond),
			bd.p50Handoff.Round(time.Microsecond), bd.coverage*100)
		if bd.linked < bd.ingests {
			return fmt.Errorf("serve-load: %d of %d traced ingest requests missing linked spans", bd.ingests-bd.linked, bd.ingests)
		}
	}
	if st.errors.Load() > 0 {
		return fmt.Errorf("serve-load: %d request error(s)", st.errors.Load())
	}
	return nil
}

// traceBreakdown is what the NDJSON trace says about the write path.
type traceBreakdown struct {
	spans   int
	ingests int // traces whose http root is a constraints request
	linked  int // of those, how many carry queue-wait + ingest-drain children
	p50HTTP, p50Await, p50Wait, p50Drain,
	p50Handoff time.Duration
	// coverage is the median per-request (wait+drain+handoff)/await ratio —
	// computed per request, not from the p50s, because the phases'
	// distributions are skewed differently and medians do not add.
	coverage float64
}

// readServeTrace rebuilds per-request span trees from the trace file and
// reduces the ingest requests to a p50 breakdown: the http root span
// against its queue-wait and ingest-drain children. The two children are
// measured by the server on either side of the queue, so their sum
// accounting for (almost all of) the http span is the end-to-end check
// that the tracing pipeline measures where ingest latency actually goes.
func readServeTrace(path string) (traceBreakdown, error) {
	var bd traceBreakdown
	f, err := os.Open(path)
	if err != nil {
		return bd, err
	}
	defer f.Close()
	recs, err := telemetry.ReadTrace(f)
	if err != nil {
		return bd, err
	}
	var httpDs, awaitDs, waitDs, drainDs, handoffDs []time.Duration
	var ratios []float64
	for _, spans := range telemetry.SpanTree(recs) {
		bd.spans += len(spans)
		var root, await, wait, drain, handoff *telemetry.TraceRecord
		for i := range spans {
			switch spans[i].Name {
			case "http":
				root = &spans[i]
			case "await-apply":
				await = &spans[i]
			case "queue-wait":
				wait = &spans[i]
			case "ingest-drain":
				drain = &spans[i]
			case "result-handoff":
				handoff = &spans[i]
			}
		}
		if root == nil || root.Attrs["route"] != "constraints" {
			continue
		}
		bd.ingests++
		if await == nil || wait == nil || drain == nil ||
			await.Parent != root.Span || wait.Parent != root.Span || drain.Parent != root.Span {
			continue
		}
		bd.linked++
		httpDs = append(httpDs, time.Duration(root.DurMicros)*time.Microsecond)
		awaitDs = append(awaitDs, time.Duration(await.DurMicros)*time.Microsecond)
		waitDs = append(waitDs, time.Duration(wait.DurMicros)*time.Microsecond)
		drainDs = append(drainDs, time.Duration(drain.DurMicros)*time.Microsecond)
		var handoffUs int64
		if handoff != nil {
			handoffUs = handoff.DurMicros
		}
		handoffDs = append(handoffDs, time.Duration(handoffUs)*time.Microsecond)
		if await.DurMicros > 0 {
			ratios = append(ratios, float64(wait.DurMicros+drain.DurMicros+handoffUs)/float64(await.DurMicros))
		}
	}
	bd.p50HTTP = p50(httpDs)
	bd.p50Await = p50(awaitDs)
	bd.p50Wait = p50(waitDs)
	bd.p50Drain = p50(drainDs)
	bd.p50Handoff = p50(handoffDs)
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		bd.coverage = ratios[len(ratios)/2]
	}
	return bd, nil
}

func p50(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// postBatch POSTs one SCL program and fails on any non-2xx status.
func postBatch(client *http.Client, base, program string, wait bool) error {
	url := base + "/v1/constraints/default"
	if wait {
		url += "?wait=1"
	}
	resp, err := client.Post(url, "text/plain", strings.NewReader(program))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST /v1/constraints/default: %d: %s", resp.StatusCode, body)
	}
	return nil
}
