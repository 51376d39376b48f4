// Command polce-serve runs the inclusion-constraint solver as an
// always-on HTTP service: constraints stream in as SCL batches, queries
// are answered from lock-free snapshots, and the whole process drains
// gracefully on SIGTERM.
//
// Usage:
//
//	polce-serve -addr :8080
//	polce-serve -addr :8080 -form sf -cycles online -queue 256
//	polce-serve -wal-verify /var/lib/polce/wal   # audit a constraint log, then exit
//
// The API v1 (see internal/serve) is sessionized — each {session} is an
// independent SCL namespace over the one shared solver — with batch
// retraction when -retractable is on (the POST returns a batch handle, the
// DELETE withdraws it):
//
//	curl -X POST localhost:8080/v1/constraints/app -d 'cons a; a <= X; X <= Y'
//	curl -X DELETE localhost:8080/v1/constraints/app/7
//	curl localhost:8080/v1/least-solution/app/Y
//	curl localhost:8080/v1/points-to/app/Y
//	curl localhost:8080/v1/snapshot/app
//	curl localhost:8080/v1/healthz
//
// A client with no namespace of its own uses the session "default"
// (/v1/constraints/default, ...); a path without a session answers 404.
// Least-solution and points-to reads carry a graph-version ETag and honour
// If-None-Match with 304s, so re-polling clients pay nothing while the
// graph is quiet; the snapshot route's counters move between versions, so
// it carries no ETag.
//
// Telemetry is always on: /metrics (Prometheus text), /metrics.json,
// /debug/vars and /debug/pprof are served on the same address, with
// per-route latency histograms and status counters alongside the solver's
// own counters.
//
// Diagnostics go to stderr as structured JSON (slog): -log-level picks the
// floor (per-request lines are debug), -slow-query logs any request at or
// over the threshold at warn with its phase breakdown, and -trace-out
// appends request-scoped spans — queue wait, ingest drain, cycle search,
// snapshot capture — as NDJSON correlated by X-Request-Id.
//
// Durability: -wal <dir> appends every accepted batch's SCL text to a
// replayable constraint log before the batch is acknowledged, and replays
// the log through the normal solver path on startup, so a crash loses
// nothing that was acked (-wal-sync picks the fsync policy: always, batch
// or off). Torn log tails — a crash mid-write — are truncated at startup,
// never fatal. -wal-verify <dir> audits a log offline instead of serving:
// it replays the log standalone and checks the recovered graph against a
// manifest (<dir>/manifest.json, or -wal-manifest), recording the
// manifest on the first run.
//
// On SIGTERM or SIGINT the server stops accepting connections, lets
// in-flight requests finish, applies every queued constraint batch, closes
// the solver and exits 0; -drain-timeout bounds the wait.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"polce"
	"polce/internal/core"
	"polce/internal/serve"
	"polce/internal/telemetry"
	"polce/internal/wal"
	"polce/internal/walreplay"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		form    = flag.String("form", "if", "graph representation: "+core.FormNames())
		cycles  = flag.String("cycles", "online", "cycle policy: "+core.CyclePolicyNames())
		seed    = flag.Int64("seed", 1, "variable-order seed")
		retract = flag.Bool("retractable", true, "track batch reasons so DELETE /v1/constraints/{session}/{batch} can retract them (off: DELETE answers 501)")

		queueDepth   = flag.Int("queue", 64, "ingestion queue depth (batches)")
		reqTimeout   = flag.Duration("request-timeout", 10*time.Second, "per-request deadline")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on 503 responses")
		maxBody      = flag.Int64("max-body", 1<<20, "maximum POST body size in bytes")
		snapStale    = flag.Duration("snapshot-stale", 0, "serve reads from a snapshot up to this stale under write churn (0 = always current)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")

		walDir     = flag.String("wal", "", "directory of the durable constraint log; replayed on startup, appended per accepted batch")
		walSync    = flag.String("wal-sync", "always", "constraint-log fsync policy: always (per accepted batch), batch (at queue-empty), off")
		walSession = flag.String("wal-session", "default", "the session whose reads also resolve variables created outside any session (each log frame records its own request's session)")

		walVerify   = flag.String("wal-verify", "", "audit this constraint-log directory and exit without serving: replay it standalone and check the recovered graph against its manifest (recording it on first run)")
		walManifest = flag.String("wal-manifest", "", "manifest path for -wal-verify (default <dir>/manifest.json)")

		logLevel  = flag.String("log-level", "info", "request/diagnostic log level: debug, info, warn, error (request logs are debug)")
		slowQuery = flag.Duration("slow-query", 0, "log requests at warn with their phase breakdown when they take at least this long (0 = off)")
		traceOut  = flag.String("trace-out", "", "append request-scoped NDJSON spans to this file")
	)
	flag.Parse()

	level, err := telemetry.ParseLogLevel(*logLevel)
	if err != nil {
		fatal("%v", err)
	}
	logger = telemetry.NewLogger(os.Stderr, level)

	if *walVerify != "" {
		// The log's meta, not the flags, pins the options replay runs under.
		if err := walreplay.Verify(os.Stdout, *walVerify, *walManifest); err != nil {
			fatal("%v", err)
		}
		return
	}

	opt := polce.Options{Seed: *seed, Retractable: *retract}
	if opt.Form, err = polce.ParseForm(*form); err != nil {
		fatal("%v", err)
	}
	if opt.Cycles, err = polce.ParseCyclePolicy(*cycles); err != nil {
		fatal("%v", err)
	}
	if opt.Retractable && opt.Cycles == polce.CyclePeriodic {
		// Periodic offline collapses mutate the graph outside batch
		// tracking, so replay could not reproduce the pre-retraction state.
		fatal("-cycles periodic cannot be combined with -retractable; pass -retractable=false")
	}

	reg := telemetry.NewRegistry()
	sm := telemetry.NewSolverMetrics(reg)
	opt.Metrics = sm
	telemetry.PublishExpvar("polce-serve", reg)

	var tracer *telemetry.Tracer
	var tw *telemetry.TraceWriter
	if *traceOut != "" {
		tw, err = telemetry.CreateTrace(*traceOut)
		if err != nil {
			fatal("%v", err)
		}
		tracer = telemetry.NewTracer(tw)
		logger.Info("request tracing on", "path", *traceOut)
	}

	var walLog *wal.Log
	var walRec *wal.Recovered
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			fatal("%v", err)
		}
		// The log's meta pins the options that make replay deterministic
		// (form, cycle policy, seed); opening an existing log under
		// different options is a configuration error, not a recovery.
		walLog, walRec, err = wal.Open(*walDir, wal.Options{
			Sync: policy,
			Meta: walreplay.OptionsMeta(opt),
		})
		if err != nil {
			fatal("opening constraint log: %v", err)
		}
		defer walLog.Close()
	}

	srv := serve.New(serve.Config{
		Solver:           polce.New(opt),
		Registry:         reg,
		SolverMetrics:    sm,
		Logger:           logger,
		Tracer:           tracer,
		SlowQuery:        *slowQuery,
		QueueDepth:       *queueDepth,
		RequestTimeout:   *reqTimeout,
		RetryAfter:       *retryAfter,
		MaxBodyBytes:     *maxBody,
		SnapshotMaxStale: *snapStale,
		WAL:              walLog,
		WALSession:       *walSession,
	})

	if walRec != nil && len(walRec.Frames) > 0 {
		start := time.Now()
		constraints, err := srv.Recover(walRec.Frames)
		if err != nil {
			fatal("replaying constraint log: %v", err)
		}
		logger.Info("constraint log replayed",
			"frames", len(walRec.Frames), "constraints", constraints,
			"truncated_bytes", walRec.TruncatedBytes,
			"elapsed", time.Since(start).String())
	} else if walRec != nil && walRec.TruncatedBytes > 0 {
		logger.Warn("constraint log had a torn tail and no intact frames",
			"truncated_bytes", walRec.TruncatedBytes)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("%v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	logger.Info("serving",
		"form", opt.Form.String(), "cycles", opt.Cycles.String(),
		"retractable", *retract,
		"addr", ln.Addr().String(), "queue", *queueDepth)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal("%v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	logger.Info("draining", "queued_batches", srv.QueueLen())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting and finish in-flight requests first, then flush the
	// ingestion queue and close the solver.
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fatal("http drain: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fatal("queue drain: %v", err)
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			fatal("closing trace: %v", err)
		}
	}
	logger.Info("drained", "ingested", srv.Ingested())
}

// logger is re-created once -log-level is parsed; the package-level
// default covers diagnostics before that (flag errors included).
var logger = telemetry.NewLogger(os.Stderr, slog.LevelInfo)

func fatal(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
