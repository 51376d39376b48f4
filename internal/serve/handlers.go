package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"polce"
	"polce/internal/telemetry"
	"polce/internal/wal"
)

// routes wires the v1 API onto the server's mux, each handler wrapped with
// the per-request deadline and the per-route instrumentation. With a
// registry configured the telemetry surface is mounted alongside, so one
// listener serves both the API and /metrics.
func (s *Server) routes() {
	for _, rt := range routeTable {
		s.handle(rt.name, rt.pattern, rt.handler(s))
	}
	if s.cfg.Registry != nil {
		tm := telemetry.NewMux(s.cfg.Registry)
		s.mux.Handle("/metrics", tm)
		s.mux.Handle("/metrics.json", tm)
		s.mux.Handle("/debug/", tm)
	}
	// The "/" catch-all turns unrouted requests into instrumented 404s, so
	// they land in the "other" route metrics and the request log instead of
	// the mux's bare response. (Method mismatches on known patterns are
	// still the mux's own 405s — the pattern matched, so the catch-all
	// never sees them.)
	s.handle("other", "/", s.handleUnmatched)
}

// routeTable is the v1 routing surface as data, one row per pattern: the
// sessionized routes and the session-free service routes. The router test
// walks this table, so a route added here is exercised automatically.
var routeTable = []struct {
	name    string // route-metrics label
	pattern string
	handler func(*Server) func(http.ResponseWriter, *http.Request) error
}{
	{"constraints", "POST /v1/constraints/{session}", func(s *Server) func(http.ResponseWriter, *http.Request) error { return s.handleConstraints }},
	{"retract", "DELETE /v1/constraints/{session}/{batch}", func(s *Server) func(http.ResponseWriter, *http.Request) error { return s.handleRetract }},
	{"points_to", "GET /v1/points-to/{session}/{var}", func(s *Server) func(http.ResponseWriter, *http.Request) error { return s.handlePointsTo }},
	{"least_solution", "GET /v1/least-solution/{session}/{var}", func(s *Server) func(http.ResponseWriter, *http.Request) error { return s.handleLeastSolution }},
	{"snapshot", "GET /v1/snapshot/{session}", func(s *Server) func(http.ResponseWriter, *http.Request) error { return s.handleSnapshot }},
	{"healthz", "GET /v1/healthz", func(s *Server) func(http.ResponseWriter, *http.Request) error { return s.handleHealthz }},
	{"debug_stats", "GET /v1/debug/stats", func(s *Server) func(http.ResponseWriter, *http.Request) error { return s.handleDebugStats }},
	{"debug_top", "GET /v1/debug/top", func(s *Server) func(http.ResponseWriter, *http.Request) error { return s.handleDebugTop }},
}

// sessionLabel resolves and validates the {session} path element.
func (s *Server) sessionLabel(r *http.Request) (string, error) {
	label := r.PathValue("session")
	if err := validSessionLabel(label); err != nil {
		return "", err
	}
	return label, nil
}

// validSessionLabel bounds what a {session} path element may be: 1–64
// bytes of letters, digits, dot, underscore and dash. The bound keeps
// labels safe for WAL frames, log lines and metric help text alike.
func validSessionLabel(label string) error {
	if label == "" || len(label) > 64 {
		return fmt.Errorf("%w: session label must be 1-64 characters", ErrBadRequest)
	}
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("%w: session label may contain only letters, digits, '.', '_' and '-'", ErrBadRequest)
		}
	}
	return nil
}

// etagOf renders the strong entity tag of a snapshot version. The graph
// version is monotone and advances exactly on mutations that can change
// some least solution, so equal tags imply byte-equal response bodies for
// the same resource.
func etagOf(version uint64) string { return fmt.Sprintf("%q", fmt.Sprintf("v%d", version)) }

// notModified reports whether the request's If-None-Match matches etag,
// per RFC 9110 §13.1.2 (weak comparison; "*" matches anything).
func notModified(r *http.Request, etag string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	for _, cand := range strings.Split(inm, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" || strings.TrimPrefix(cand, "W/") == etag {
			return true
		}
	}
	return false
}

// handle wraps one route with the serve middleware: a request ID (taken
// from the client's X-Request-Id or generated) echoed in the response
// header and threaded through the context as the trace ID, an "http" root
// span when tracing is on, the per-request deadline, a status recorder
// for the metrics, centralised error rendering, and the structured
// request log.
func (s *Server) handle(route, pattern string, h func(http.ResponseWriter, *http.Request) error) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = telemetry.NewTraceID()
		}
		w.Header().Set("X-Request-Id", reqID)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		track := &reqTrack{id: reqID}
		ctx = withTrack(telemetry.WithTraceID(ctx, reqID), track)
		ctx, span := s.tracer.StartSpan(ctx, "http")
		span.SetAttr("route", route)
		span.SetAttr("method", r.Method)
		span.SetAttr("path", r.URL.Path)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		err := h(rec, r.WithContext(ctx))
		if err != nil {
			s.writeError(rec, err)
		}
		elapsed := time.Since(start)
		span.SetAttr("status", rec.status)
		span.End()
		s.metrics.observe(route, rec.status, elapsed)
		s.logRequest(r, route, rec.status, elapsed, track, err)
	})
}

// writeError renders err through the status table, attaching the backoff
// hint to 503s.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code, kind := classify(err)
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	writeJSON(w, code, map[string]any{"error": err.Error(), "kind": kind})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// constraintsRequest is the POST /v1/constraints body: a fragment of SCL —
// constructor declarations and inclusion constraints — appended to the
// session's constraint program.
type constraintsRequest struct {
	Program string `json:"program"`
}

// handleConstraints ingests one batch. Admission is synchronous — parse
// (400 on malformed SCL, atomically rolled back), constraint-log append,
// enqueue, all one atomic step in accept — and the solve is queued: by
// default the response is a 202 once the batch is durably accepted, and
// ?wait=1 blocks until the batch has been applied, reporting the graph
// version it produced (or a 409 if it made the system inconsistent).
// Declaration-only batches queue (and log) too: replay needs every
// vocabulary change in stream order, not just the constraint-bearing ones.
func (s *Server) handleConstraints(w http.ResponseWriter, r *http.Request) error {
	label, err := s.sessionLabel(r)
	if err != nil {
		return err
	}
	src, err := readProgram(r, s.cfg.MaxBodyBytes)
	if err != nil {
		return err
	}
	job, err := s.accept(r.Context(), wal.FrameConstraints, label, src, nil)
	if err != nil {
		return err
	}
	// Under SyncAlways the frame reaches stable storage before any ack —
	// outside acceptMu, so concurrent accepts share one fsync and reads
	// never queue behind the disk.
	if err := s.durable(job); err != nil {
		return err
	}
	if r.URL.Query().Get("wait") == "" {
		resp := map[string]any{"accepted": len(job.batch), "queue_len": s.QueueLen(), "session": label}
		if job.seq != 0 {
			resp["wal_seq"] = job.seq
		}
		if job.handle != 0 {
			// The batch handle names this POST for a later DELETE; on a
			// durable server it is the WAL sequence number, so the log and
			// the API share one naming scheme.
			resp["batch"] = job.handle
		}
		writeJSON(w, http.StatusAccepted, resp)
		return nil
	}
	// The await-apply span is the handler-side view of the same interval
	// the ingester decomposes into queue-wait + ingest-drain; the remainder
	// — result-handoff — is the scheduling delay between the ingester
	// finishing the batch and this goroutine waking up, measured rather
	// than inferred so the breakdown sums to the observed wait. It is
	// taken from one clock read on wakeup, before await-apply's own span
	// write, so it ends no later than await-apply does.
	_, await := s.tracer.StartSpan(r.Context(), "await-apply")
	select {
	case res := <-job.done:
		woke := time.Now()
		handoff := woke.Sub(job.at) - res.wait - res.drain
		await.SetAttr("applied", res.applied)
		await.End()
		if handoff > 0 {
			s.tracer.Emit(r.Context(), "result-handoff", woke.Add(-handoff), handoff, nil)
		}
		track := trackFrom(r.Context())
		track.phase("queue_wait", res.wait)
		track.phase("ingest_drain", res.drain)
		track.versioned(res.version)
		if res.err != nil {
			return res.err
		}
		resp := map[string]any{"applied": res.applied, "version": res.version, "session": label}
		if job.handle != 0 {
			resp["batch"] = job.handle
		}
		writeJSON(w, http.StatusOK, resp)
		return nil
	case <-r.Context().Done():
		await.SetAttr("error", r.Context().Err().Error())
		await.End()
		// The batch stays queued and will still be applied; the client just
		// stopped waiting for it.
		return r.Context().Err()
	}
}

// handleRetract withdraws one previously accepted batch by its handle:
// every consequence whose last remaining justification came from that batch
// disappears, facts still derivable from surviving batches stay. The
// retraction is synchronous — by the time the 200 arrives the dirty cone
// has been replayed — and atomic: an unknown or foreign handle is a 404
// with nothing retracted. On a non-retractable solver the route answers
// 501.
func (s *Server) handleRetract(w http.ResponseWriter, r *http.Request) error {
	label, err := s.sessionLabel(r)
	if err != nil {
		return err
	}
	handle, err := strconv.ParseUint(r.PathValue("batch"), 10, 64)
	if err != nil || handle == 0 {
		return fmt.Errorf("%w: batch handle must be a positive integer", ErrBadRequest)
	}
	job, err := s.accept(r.Context(), wal.FrameRetract, label, "", []uint64{handle})
	if err != nil {
		return err
	}
	if err := s.durable(job); err != nil {
		return err
	}
	// Unlike POST there is no fire-and-forget mode: the client needs the
	// validation outcome (the handle may be unknown), so DELETE always
	// waits for the ingester.
	_, await := s.tracer.StartSpan(r.Context(), "await-retract")
	select {
	case res := <-job.done:
		await.End()
		track := trackFrom(r.Context())
		track.phase("queue_wait", res.wait)
		track.phase("ingest_drain", res.drain)
		track.versioned(res.version)
		if res.err != nil {
			return res.err
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"session": label,
			"batch":   handle,
			"version": res.version,
			"report": map[string]any{
				"no_op":                res.report.NoOp,
				"dirty_vars":           res.report.DirtyVars,
				"total_vars":           res.report.TotalVars,
				"replayed_batches":     res.report.ReplayedBatches,
				"replayed_constraints": res.report.ReplayedConstraints,
				"duration_seconds":     res.report.Duration.Seconds(),
			},
		})
		return nil
	case <-r.Context().Done():
		await.SetAttr("error", r.Context().Err().Error())
		await.End()
		// The retraction stays queued and will still be applied; the client
		// just stopped waiting for the outcome.
		return r.Context().Err()
	}
}

// readProgram accepts either a JSON {"program": "..."} body or raw SCL
// text (text/plain or no content type).
func readProgram(r *http.Request, maxBytes int64) (string, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBytes+1))
	if err != nil {
		return "", fmt.Errorf("%w: reading body: %v", ErrBadRequest, err)
	}
	if int64(len(body)) > maxBytes {
		return "", fmt.Errorf("%w: body exceeds %d bytes", ErrBadRequest, maxBytes)
	}
	ct := r.Header.Get("Content-Type")
	if ct != "" {
		if mt, _, err := mime.ParseMediaType(ct); err == nil {
			ct = mt
		}
	}
	if ct == "application/json" {
		var req constraintsRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return "", fmt.Errorf("%w: decoding JSON body: %v", ErrBadRequest, err)
		}
		return req.Program, nil
	}
	return string(body), nil
}

// query resolves the {session} and {var} path elements against a fresh
// snapshot. Reads never touch the live graph: the snapshot is captured
// once per graph version and shared by every concurrent query. The
// session's binder resolves first (sessions partition the SCL namespace);
// the solver-wide name index is a fallback for the default session only,
// so variables minted outside any session — embedders driving the solver
// directly — stay reachable through the default session's routes without
// leaking one session's names into another's.
func (s *Server) query(r *http.Request) (*polce.Snapshot, *polce.Var, error) {
	label, err := s.sessionLabel(r)
	if err != nil {
		return nil, nil, err
	}
	name := r.PathValue("var")
	snap, err := s.snapshot(r.Context())
	if err != nil {
		return nil, nil, err
	}
	trackFrom(r.Context()).queried(name, snap.Version())
	if v, ok := s.stream.Lookup(label, name); ok {
		return snap, v, nil
	}
	if label == s.cfg.WALSession {
		if v := snap.VarByName(name); v != nil {
			return snap, v, nil
		}
	}
	return nil, nil, fmt.Errorf("%w: %q", ErrUnknownVar, name)
}

// handleLeastSolution reports the full least solution of one variable as
// rendered terms, stamped with the snapshot version that produced it.
func (s *Server) handleLeastSolution(w http.ResponseWriter, r *http.Request) error {
	snap, v, err := s.query(r)
	if err != nil {
		return err
	}
	etag := etagOf(snap.Version())
	w.Header().Set("ETag", etag)
	if notModified(r, etag) {
		w.WriteHeader(http.StatusNotModified)
		return nil
	}
	terms, err := snap.LeastSolutionContext(r.Context(), v)
	if err != nil {
		return err
	}
	rendered := make([]string, len(terms))
	for i, t := range terms {
		rendered[i] = t.String()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"var": v.Name(), "version": snap.Version(), "terms": rendered,
	})
	return nil
}

// handlePointsTo reports the abstract-location view of a least solution:
// nullary constructors name themselves, and for constructed terms the
// first argument names the location when it is a variable (the ref-term
// convention of Andersen-style analyses); anything else falls back to the
// rendered term.
func (s *Server) handlePointsTo(w http.ResponseWriter, r *http.Request) error {
	snap, v, err := s.query(r)
	if err != nil {
		return err
	}
	etag := etagOf(snap.Version())
	w.Header().Set("ETag", etag)
	if notModified(r, etag) {
		w.WriteHeader(http.StatusNotModified)
		return nil
	}
	terms, err := snap.LeastSolutionContext(r.Context(), v)
	if err != nil {
		return err
	}
	locs := make([]string, 0, len(terms))
	for _, t := range terms {
		switch {
		case t.Con().Arity() == 0:
			locs = append(locs, t.Con().Name())
		default:
			if av, ok := t.Arg(0).(*polce.Var); ok {
				locs = append(locs, av.Name())
			} else {
				locs = append(locs, t.String())
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"var": v.Name(), "version": snap.Version(), "points_to": locs,
	})
	return nil
}

// handleSnapshot reports the graph version, solver counters and queue
// state — the service's dashboard endpoint. It carries no ETag: sessions,
// batches, queue length and the ingested and retracted counts change
// without a graph-version bump, so a version tag would name two bodies.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) error {
	label, err := s.sessionLabel(r)
	if err != nil {
		return err
	}
	snap, err := s.snapshot(r.Context())
	if err != nil {
		return err
	}
	sessionVars, sessions, retracted := s.stream.Counts(label)
	writeJSON(w, http.StatusOK, map[string]any{
		"version":      snap.Version(),
		"form":         snap.Form().String(),
		"vars":         snap.NumVars(),
		"session":      label,
		"session_vars": sessionVars,
		"sessions":     sessions,
		"retractable":  s.solver.Retractable(),
		"batches":      s.solver.BatchCount(),
		"retracted":    retracted,
		"errors":       snap.ErrorCount(),
		"stats":        snap.Stats(),
		"queue_len":    s.QueueLen(),
		"queue_cap":    s.QueueCap(),
		"ingested":     s.Ingested(),
	})
	return nil
}

// handleHealthz is the liveness probe: cheap and lock-free — no snapshot
// capture, no solver lock (the version is the ingester's last applied one,
// tracked atomically) — and honest about draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"queue_len":      s.QueueLen(),
		"queue_cap":      s.QueueCap(),
		"version":        s.lastVersion.Load(),
		"ingested":       s.Ingested(),
	})
	return nil
}
