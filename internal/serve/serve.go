// Package serve is the snapshot-backed HTTP constraint query service: a
// stdlib-only JSON API v1 over one polce.Solver, built so queries never
// contend with ingestion.
//
// Writes go through a bounded ingestion queue drained by a single
// ingester goroutine (backpressure is a 503 with Retry-After when the
// queue is full); every read is answered from a polce.Snapshot, which is
// captured under the solver lock once per graph version and then read
// lock-free, so any number of concurrent queries race an ingesting writer
// safely. Constraints arrive as SCL text (internal/scl) and grow one
// session-long constraint program; variables are addressed by their SCL
// names.
//
// The API surface is sessionized: every write and query names a session —
// an independent SCL namespace over the one shared solver — and batches
// are first-class resources that can be retracted by the handle their POST
// returned:
//
//	POST   /v1/constraints/{session}          ingest a batch of SCL statements
//	DELETE /v1/constraints/{session}/{batch}  retract a previously added batch
//	GET    /v1/points-to/{session}/{var}      abstract locations in var's least solution
//	GET    /v1/least-solution/{session}/{var} full least-solution terms of var
//	GET    /v1/snapshot/{session}             graph version, solver stats, queue state
//	GET    /v1/healthz                        liveness and queue occupancy
//
// A path without a session is not routed and answers 404. The default
// session (Config.WALSession, "default" unless set) also resolves
// variables created outside any session, by embedders driving the solver
// directly. Least-solution and points-to responses carry a strong ETag
// derived from the monotone graph version; an If-None-Match hit
// short-circuits to 304. The snapshot route carries none, because its
// session, batch and queue counters move without a version bump.
//
// Error mapping is table-driven (see StatusOf): inconsistent constraint
// systems report 409, a full ingestion queue 503, a closed (drained)
// solver 410, an unknown retraction handle 404, retraction against a
// non-retractable solver 501. With a telemetry.Registry configured, per-route latency
// histograms and status-class counters flow into the shared /metrics
// surface, which is mounted on the same handler.
package serve

import (
	"context"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"polce"
	"polce/internal/telemetry"
	"polce/internal/wal"
	"polce/internal/walreplay"
)

// Config configures a Server. Solver is required; everything else has a
// serviceable default.
type Config struct {
	// Solver is the live solver the service ingests into and snapshots
	// from.
	Solver *polce.Solver
	// Registry, when non-nil, receives per-route request metrics and is
	// served on /metrics, /metrics.json and /debug/ alongside the API.
	Registry *telemetry.Registry
	// QueueDepth bounds the ingestion queue (batches, not constraints).
	// Zero means 64.
	QueueDepth int
	// RequestTimeout is the per-request deadline applied to every
	// handler's context. Zero means 10s.
	RequestTimeout time.Duration
	// RetryAfter is the backoff hint returned with 503 responses. Zero
	// means 1s.
	RetryAfter time.Duration
	// MaxBodyBytes bounds a POST body. Zero means 1 MiB.
	MaxBodyBytes int64
	// SnapshotMaxStale, when positive, lets reads share the last captured
	// snapshot for up to this long even if ingestion has moved the graph
	// version on — bounded staleness. Under heavy write churn this keeps
	// reads lock-free (an atomic load) instead of serialising every reader
	// behind an O(vars) capture per version bump. Zero means reads are
	// always served from the current version.
	SnapshotMaxStale time.Duration
	// Logger, when non-nil, receives one structured log line per request:
	// debug level normally, warn past the SlowQuery threshold, error for
	// 5xx responses. Every line carries the request ID, joining the log
	// against the trace spans of the same request.
	Logger *slog.Logger
	// Tracer, when non-nil, emits request-scoped NDJSON spans: an "http"
	// root span per request, with "queue-wait"/"ingest-drain"/
	// "cycle-search" children on the write path and "snapshot-capture"/
	// "ls-pass" children on the read path, all sharing the request ID.
	Tracer *telemetry.Tracer
	// SolverMetrics, when set alongside Tracer, lets the server attribute
	// solver phase time (closure, least-solution) to individual spans by
	// reading phase-timer deltas around single-writer sections. Install the
	// same sink as the solver's Options.Metrics.
	SolverMetrics *telemetry.SolverMetrics
	// SlowQuery, when positive and Logger is set, logs requests that took
	// at least this long at warn level with their phase breakdown.
	SlowQuery time.Duration
	// WAL, when non-nil, is the durable constraint log. Every accepted
	// batch's SCL text is appended (and, under SyncAlways, fsynced) before
	// the 202/200 goes out, so an acknowledged batch survives a process
	// crash: on the next start, Recover replays the log through the same
	// walreplay.Stream the live server writes through and reconstructs a
	// bit-identical graph. The caller opens the log (wal.Open pins the
	// solver options into the log's meta) and closes it after Shutdown
	// returns.
	WAL *wal.Log
	// WALSession names the one session whose reads fall back to the
	// solver-wide name index, so variables created outside any session —
	// by embedders driving the solver directly — stay reachable. It does
	// not label frames: each frame records its own request's session.
	// Empty means "default".
	WALSession string
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.WALSession == "" {
		c.WALSession = "default"
	}
	return c
}

// Server is the service: an ingestion queue, the write stream its
// sessions parse into, and the v1 HTTP handlers. Create one with New,
// expose Handler() through an http.Server, and call Shutdown to drain.
type Server struct {
	cfg      Config
	solver   *polce.Solver
	stream   *walreplay.Stream // sessions and live retraction handles
	metrics  *routeMetrics
	qmetrics *queueMetrics
	logger   *slog.Logger
	tracer   *telemetry.Tracer
	sm       *telemetry.SolverMetrics
	mux      *http.ServeMux
	start    time.Time

	queue    chan *ingestJob // sent on only by accept, under acceptMu
	drainReq chan struct{}   // closed by Shutdown: ingester drains and exits
	done     chan struct{}   // closed when the ingester has exited
	draining atomic.Bool
	drainMu  sync.RWMutex // accept holds R across admission; Shutdown's W is the barrier
	acceptMu sync.Mutex   // serialises admission across sessions: creation order = frame order

	handleSeq atomic.Uint64 // retraction handles when the WAL is off

	wal         *wal.Log
	walFailed   atomic.Bool  // a log write failed: ingestion refuses until restart
	walReplayed atomic.Int64 // frames replayed by Recover at startup

	ingested      atomic.Int64  // constraints applied by the ingester
	lastVersion   atomic.Uint64 // graph version after the last applied batch
	applyingSince atomic.Int64  // enqueue time (unix nanos) of the batch being applied; 0 idle
	ages          *ageTracker   // enqueue times of queued-but-unapplied batches, FIFO

	snapMu         sync.Mutex                // serialises strict (always-fresh) captures
	snapCur        atomic.Pointer[snapEntry] // last capture, shared by stale reads
	snapRefreshing atomic.Bool               // a bounded-staleness refresh is in flight
}

// snapEntry is one cached capture: the snapshot and when it was taken.
type snapEntry struct {
	snap *polce.Snapshot
	at   time.Time
}

// snapshot returns the snapshot reads are served from. With
// SnapshotMaxStale zero (the default) every read captures the current
// version, serialised on snapMu — the solver's epoch guard makes repeat
// captures of an unchanged graph free. With a staleness bound the scheme is
// stale-while-revalidate: within the window a read is one atomic load; past
// it, the first reader through refreshes while every other reader keeps
// the previous snapshot, so no query ever waits out an O(vars) capture
// behind a hot writer. Effective staleness is therefore the window plus one
// capture time.
func (s *Server) snapshot(ctx context.Context) (*polce.Snapshot, error) {
	max := s.cfg.SnapshotMaxStale
	if e := s.snapCur.Load(); max > 0 && e != nil {
		if time.Since(e.at) < max {
			s.qmetrics.hit()
			return e.snap, nil
		}
		if !s.snapRefreshing.CompareAndSwap(false, true) {
			s.qmetrics.stale()
			return e.snap, nil // someone else is refreshing; stay on the stale view
		}
		defer s.snapRefreshing.Store(false)
		snap, err := s.capture(ctx)
		if err != nil {
			s.qmetrics.stale()
			return e.snap, nil // cancelled mid-refresh: the stale view still answers
		}
		s.snapCur.Store(&snapEntry{snap: snap, at: time.Now()})
		return snap, nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if e := s.snapCur.Load(); max > 0 && e != nil && time.Since(e.at) < max {
		s.qmetrics.hit()
		return e.snap, nil
	}
	snap, err := s.capture(ctx)
	if err != nil {
		return nil, err
	}
	s.snapCur.Store(&snapEntry{snap: snap, at: time.Now()})
	return snap, nil
}

// capture performs one snapshot capture, counted as a cache miss (the
// solver's epoch guard makes unchanged-graph captures cheap, so a miss is
// an upper bound on real work). On a traced request it wraps the capture
// in a "snapshot-capture" span and, when the capture ran a least-solution
// pass, emits an "ls-pass" child sized by the phase-timer delta — safe to
// attribute because captures are serialised by the callers (snapMu, or
// the refresh CAS) and nothing else runs LS passes.
func (s *Server) capture(ctx context.Context) (*polce.Snapshot, error) {
	s.qmetrics.miss()
	ctx, span := s.tracer.StartSpan(ctx, "snapshot-capture")
	var ls0 time.Duration
	if s.sm != nil && span != nil {
		ls0, _ = s.sm.Phases.Get(telemetry.PhaseLeastSolution)
	}
	start := time.Now()
	snap, err := s.solver.SnapshotContext(ctx)
	if err != nil {
		span.SetAttr("error", err.Error())
		span.End()
		return nil, err
	}
	if s.sm != nil && span != nil {
		ls1, _ := s.sm.Phases.Get(telemetry.PhaseLeastSolution)
		if d := ls1 - ls0; d > 0 {
			s.tracer.Emit(ctx, "ls-pass", start, d, map[string]any{"version": snap.Version()})
		}
	}
	span.SetAttr("version", snap.Version())
	span.End()
	trackFrom(ctx).phase("snapshot_capture", time.Since(start))
	return snap, nil
}

// New builds a Server over cfg.Solver and starts its ingester goroutine.
func New(cfg Config) *Server {
	s := newServer(cfg)
	go s.ingest()
	return s
}

// newServer builds a Server without starting the ingester — tests that
// need a parked ingester (queue-full paths, age gauges) use it directly.
func newServer(cfg Config) *Server {
	if cfg.Solver == nil {
		panic("serve: Config.Solver is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		solver:   cfg.Solver,
		stream:   walreplay.NewStream(cfg.Solver),
		metrics:  newRouteMetrics(cfg.Registry),
		logger:   cfg.Logger,
		tracer:   cfg.Tracer,
		sm:       cfg.SolverMetrics,
		mux:      http.NewServeMux(),
		start:    time.Now(),
		queue:    make(chan *ingestJob, cfg.QueueDepth),
		drainReq: make(chan struct{}),
		done:     make(chan struct{}),
		wal:      cfg.WAL,
		ages:     &ageTracker{},
	}
	s.qmetrics = newQueueMetrics(cfg.Registry, s)
	s.routes()
	return s
}

// Recover applies frames recovered from the constraint log, in order,
// through the server's walreplay.Stream — the same Parse, Add and Retract
// the live accept and apply paths ran them through — so the recovered
// graph is bit-identical to the pre-crash one: same variable creation
// order, same constraint order, same seeded edge orientations, same
// partition. Recovered handles stay registered, so pre-crash batches can
// still be retracted after the restart. Call Recover after New and before
// serving traffic; frames bypass the queue and are NOT re-appended to the
// log (they are already in it).
func (s *Server) Recover(frames []wal.Frame) (int, error) {
	constraints := 0
	for _, f := range frames {
		n, err := s.stream.Apply(f)
		constraints += n
		if err != nil {
			return constraints, err
		}
		s.walReplayed.Add(1)
	}
	s.ingested.Add(int64(constraints))
	s.lastVersion.Store(s.solver.Version())
	return constraints, nil
}

// Handler returns the service's HTTP handler: the v1 API plus, when a
// registry is configured, the telemetry surface (/metrics, /metrics.json,
// /debug/vars, /debug/pprof).
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the service: new ingestion is refused with
// ErrSolverClosed (410) immediately, queued batches are applied, and the
// solver is closed once the queue is empty. It returns nil when the drain
// completed, or ctx's error if the deadline expired first (queued batches
// past the deadline are dropped). Shutdown is idempotent; reads keep
// working before and after.
func (s *Server) Shutdown(ctx context.Context) error {
	// The write lock is the barrier against the accepted-then-lost race:
	// accept holds the read side across its draining check and queue send,
	// so once this Lock is granted no admission is mid-flight — every
	// accepted job is already in the queue, where the ingester's final
	// flush (which only starts after drainReq closes, i.e. after this
	// barrier) is guaranteed to see it.
	s.drainMu.Lock()
	first := s.draining.CompareAndSwap(false, true)
	s.drainMu.Unlock()
	if first {
		close(s.drainReq)
	}
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// QueueLen returns the number of batches waiting in the ingestion queue.
func (s *Server) QueueLen() int { return len(s.queue) }

// QueueCap returns the ingestion queue's capacity.
func (s *Server) QueueCap() int { return cap(s.queue) }

// Ingested returns the total number of constraints applied so far.
func (s *Server) Ingested() int64 { return s.ingested.Load() }
