package serve

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"polce/internal/telemetry"
)

// ageTracker records the enqueue times of batches that are queued but not
// yet picked up, in FIFO order — the data behind the oldest-age gauge. The
// queue channel itself cannot be inspected, so accept pushes here right
// before the channel send and the ingester pops right after receiving.
// A plain slice with a moving head: pushes and pops are O(1), and the
// occasional compaction keeps memory bounded by queue depth.
type ageTracker struct {
	mu   sync.Mutex
	at   []time.Time
	head int
}

func (a *ageTracker) push(t time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.head > 0 && a.head == len(a.at) {
		a.at = a.at[:0]
		a.head = 0
	}
	a.at = append(a.at, t)
}

func (a *ageTracker) pop() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.head < len(a.at) {
		a.head++
		if a.head == len(a.at) {
			a.at = a.at[:0]
			a.head = 0
		}
	}
}

// oldest returns the enqueue time of the oldest still-queued batch, or the
// zero time when the queue is empty.
func (a *ageTracker) oldest() time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.head < len(a.at) {
		return a.at[a.head]
	}
	return time.Time{}
}

// routeMetrics instruments each route with a latency histogram and
// per-status-class counters in the shared telemetry registry. Routes are
// known statically, so every metric is registered once at construction and
// the request path stays allocation-free. A nil registry degrades to
// no-ops at the cost of one nil check per request.
type routeMetrics struct {
	byRoute map[string]*routeEntry
}

type routeEntry struct {
	latency *telemetry.Histogram
	status  [3]*telemetry.Counter // 2xx, 4xx, 5xx
}

// routeNames are the metric-name suffixes, one per API route. "other" is
// the catch-all for requests that match no known route (404s, routes
// added before their metrics), so unmatched traffic is still counted.
var routeNames = []string{
	"constraints", "retract", "points_to", "least_solution", "snapshot", "healthz",
	"debug_stats", "debug_top", "other",
}

// latencyBuckets spans 100µs to ~13s in powers of ~3.2 — wide enough for a
// loopback read (tens of µs) and a deadline-bounded ingest wait alike.
func latencyBuckets() []float64 {
	return telemetry.LogBuckets(100e-6, 3.2, 10)
}

func newRouteMetrics(reg *telemetry.Registry) *routeMetrics {
	if reg == nil {
		return nil
	}
	m := &routeMetrics{byRoute: map[string]*routeEntry{}}
	for _, name := range routeNames {
		help := fmt.Sprintf("/v1/%s", name)
		if name == "other" {
			help = "unmatched routes"
		}
		e := &routeEntry{
			latency: reg.Histogram(
				fmt.Sprintf("polce_http_request_seconds_%s", name),
				fmt.Sprintf("request latency of %s in seconds", help),
				latencyBuckets()),
		}
		for i, class := range []string{"2xx", "4xx", "5xx"} {
			e.status[i] = reg.Counter(
				fmt.Sprintf("polce_http_requests_%s_%s", name, class),
				fmt.Sprintf("responses of %s with a %s status", help, class))
		}
		m.byRoute[name] = e
	}
	return m
}

// observe records one finished request. A route without its own entry is
// counted under "other", so no response is ever silently dropped from the
// metrics.
func (m *routeMetrics) observe(route string, status int, elapsed time.Duration) {
	if m == nil {
		return
	}
	e, ok := m.byRoute[route]
	if !ok {
		e = m.byRoute["other"]
		if e == nil {
			return
		}
	}
	e.latency.Observe(elapsed.Seconds())
	switch {
	case status >= 500:
		e.status[2].Inc()
	case status >= 400:
		e.status[1].Inc()
	default:
		e.status[0].Inc()
	}
}

// queueMetrics is the ingestion-queue and snapshot-cache observability:
// depth and age gauges plus a wait-time histogram for the queue, and
// hit/miss/stale counters for the snapshot cache. All fields are nil when
// the server has no registry; use the observe helpers, which no-op then.
type queueMetrics struct {
	wait       *telemetry.Histogram
	batchSize  *telemetry.Histogram
	walAppendH *telemetry.Histogram
	snapHit    *telemetry.Counter
	snapMiss   *telemetry.Counter
	snapStale  *telemetry.Counter
}

// newQueueMetrics registers the queue and snapshot-cache metrics. The
// depth and age gauges are computed at exposition time from the server's
// own state, so they cost nothing on the request path.
func newQueueMetrics(reg *telemetry.Registry, s *Server) *queueMetrics {
	if reg == nil {
		return nil
	}
	reg.GaugeFunc("polce_serve_queue_depth", "batches waiting in the ingestion queue",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("polce_serve_queue_cap", "capacity of the ingestion queue in batches",
		func() float64 { return float64(cap(s.queue)) })
	reg.GaugeFunc("polce_serve_queue_oldest_age_seconds",
		"age of the oldest unapplied batch: the one mid-apply, else the queue head (0 when idle)",
		func() float64 {
			// The batch being applied entered the queue before anything
			// still queued (single FIFO ingester), so it is the oldest
			// whenever one is in flight. A stalled ingester with a full
			// queue has applyingSince 0 but a non-zero queue head — the
			// case the old applyingSince-only gauge reported as 0.
			if at := s.applyingSince.Load(); at != 0 {
				return time.Since(time.Unix(0, at)).Seconds()
			}
			if at := s.ages.oldest(); !at.IsZero() {
				return time.Since(at).Seconds()
			}
			return 0
		})
	// Drain-shape gauges: the solver's StorageStats read is O(1) counters
	// under the solver lock, cheap enough per scrape.
	reg.GaugeFunc("polce_core_worklist_hwm", "high-water mark of the closure worklist",
		func() float64 { return float64(s.solver.StorageStats().WorklistHWM) })
	reg.GaugeFunc("polce_core_delta_ranges", "term-set range entries pushed by the closure drain loop",
		func() float64 { return float64(s.solver.StorageStats().DeltaRanges) })
	reg.GaugeFunc("polce_core_delta_max_span", "widest term-set range pushed by the closure drain loop",
		func() float64 { return float64(s.solver.StorageStats().DeltaMaxSpan) })
	if s.wal != nil {
		reg.GaugeFunc("polce_serve_wal_frames", "frames in the constraint log, recovered plus appended",
			func() float64 { return float64(s.wal.Frames()) })
		reg.GaugeFunc("polce_serve_wal_bytes", "size of the constraint log in bytes",
			func() float64 { return float64(s.wal.Bytes()) })
		reg.GaugeFunc("polce_serve_wal_syncs", "fsyncs issued against the constraint log",
			func() float64 { return float64(s.wal.Syncs()) })
		reg.GaugeFunc("polce_serve_wal_last_seq", "sequence number of the last logged frame",
			func() float64 { return float64(s.wal.LastSeq()) })
		reg.GaugeFunc("polce_serve_wal_replayed_frames", "frames replayed from the log at startup",
			func() float64 { return float64(s.walReplayed.Load()) })
		reg.GaugeFunc("polce_serve_wal_truncated_bytes", "torn-tail bytes truncated from the log at startup",
			func() float64 { return float64(s.wal.TruncatedBytes()) })
	}
	qm := &queueMetrics{
		wait: reg.Histogram("polce_serve_queue_wait_seconds",
			"time a batch waited in the ingestion queue before the ingester picked it up",
			telemetry.LogBuckets(10e-6, 4, 12)),
		batchSize: reg.Histogram("polce_serve_ingest_batch_constraints",
			"constraints per applied ingestion batch",
			telemetry.LogBuckets(1, 4, 10)),
		snapHit: reg.Counter("polce_serve_snapshot_hits_total",
			"reads served from the cached snapshot within the staleness window"),
		snapMiss: reg.Counter("polce_serve_snapshot_misses_total",
			"reads that captured a snapshot (the solver's epoch guard makes unchanged-graph captures cheap)"),
		snapStale: reg.Counter("polce_serve_snapshot_stale_total",
			"reads served a stale snapshot while another reader refreshed (or a refresh was cancelled)"),
	}
	if s.wal != nil {
		qm.walAppendH = reg.Histogram("polce_serve_wal_append_seconds",
			"time to append one frame to the constraint log (excluding fsync)",
			telemetry.LogBuckets(1e-6, 4, 12))
	}
	return qm
}

func (m *queueMetrics) observeWait(d time.Duration, batch int) {
	if m == nil {
		return
	}
	m.wait.Observe(d.Seconds())
	m.batchSize.Observe(float64(batch))
}

func (m *queueMetrics) walAppend(d time.Duration) {
	if m == nil || m.walAppendH == nil {
		return
	}
	m.walAppendH.Observe(d.Seconds())
}

func (m *queueMetrics) hit() {
	if m != nil {
		m.snapHit.Inc()
	}
}

func (m *queueMetrics) miss() {
	if m != nil {
		m.snapMiss.Inc()
	}
}

func (m *queueMetrics) stale() {
	if m != nil {
		m.snapStale.Inc()
	}
}

// statusRecorder captures the status a handler wrote, defaulting to 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards http.Flusher to the underlying writer, so streaming
// responses (chunked bulk ingestion, long polls) flush through the
// recorder instead of buffering until the handler returns.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
