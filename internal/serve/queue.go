package serve

import (
	"context"
	"fmt"
	"time"

	"polce"
	"polce/internal/telemetry"
	"polce/internal/wal"
	"polce/internal/walreplay"
)

// ingestJob is one accepted write awaiting the ingester — a constraint
// batch or a retraction, tagged by kind. done is buffered so the ingester
// never blocks on a caller that stopped waiting. ctx carries the request's
// trace values (request ID, enclosing span) without its cancellation: a
// client that disconnects after the 202 must not cancel a batch the server
// already accepted.
type ingestJob struct {
	kind    wal.FrameKind
	session string
	batch   []polce.Constraint // constraints job: the lowered batch
	targets []uint64           // retract job: the retraction handles
	ctx     context.Context
	at      time.Time // when the job was accepted into the queue
	seq     uint64    // WAL sequence number (0 when the log is off)
	handle  uint64    // retraction handle issued to the client (0 when not retractable)
	done    chan ingestResult
}

// ingestResult reports how a batch fared: how many constraints were
// applied, the graph version afterwards, how long the batch waited in the
// queue and how long the drain took, and the typed error, if any
// (ErrInconsistent when the batch introduced inconsistencies,
// ErrSolverClosed when a drain raced the batch past the solver's close).
type ingestResult struct {
	applied int
	version uint64
	wait    time.Duration
	drain   time.Duration
	report  polce.RetractReport // retract jobs: what the retraction rolled back
	err     error
}

// accept is the whole write-side admission path, one atomic step under
// acceptMu: check for room in the queue, parse and lower the SCL text (a
// constraints job) or render the retract frame (a retract job), append the
// frame to the constraint log, and hand the job to the ingester.
//
// The ordering discipline here is what makes WAL replay bit-identical to
// the live run. Lowering creates solver variables (first use calls Fresh),
// and the seeded variable order o(·) — which decides edge orientation —
// depends on creation order; so the log must record frames in exactly the
// order lowering ran. Holding acceptMu across parse + append + enqueue,
// across every session (lowering interns variables into the one shared
// solver), forces accept order = frame order = queue order = apply order,
// and replaying frames in sequence reproduces both the variable creation
// order and the constraint application order.
//
// Refusals come before anything mutates: a full queue (ErrQueueFull → 503
// + Retry-After), a draining server (ErrSolverClosed → 410) and a DELETE
// on a solver that does not track batches (ErrNotRetractable → 501) leave
// the sessions, the log and the solver exactly as before the call — in
// particular no orphan variables that would skew the seeded order of
// later batches against replay. Only accept sends on the queue, and only
// under acceptMu, so the room seen before parsing is still there at the
// send.
//
// A retract job is validated at apply time, behind every batch accepted
// before it (its target may still be queued); one that fails validation
// has still consumed a frame, which replay skips the same way.
func (s *Server) accept(ctx context.Context, kind wal.FrameKind, label, text string, targets []uint64) (*ingestJob, error) {
	// Fast refusals, before any lock.
	if kind == wal.FrameRetract && !s.solver.Retractable() {
		return nil, polce.ErrNotRetractable
	}
	if s.draining.Load() {
		return nil, polce.ErrSolverClosed
	}
	if s.walFailed.Load() {
		return nil, ErrWALFailed
	}

	// drainMu (read side) brackets the whole admission: Shutdown flips
	// draining under the write lock, so once Shutdown proceeds, no accept
	// is mid-flight — every job is either already in the queue (the
	// ingester's final flush will apply it) or will be refused by the
	// draining check below. This closes the accepted-then-lost race.
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return nil, polce.ErrSolverClosed
	}
	s.acceptMu.Lock()
	defer s.acceptMu.Unlock()
	if len(s.queue) == cap(s.queue) {
		return nil, polce.ErrQueueFull
	}

	var batch []polce.Constraint
	if kind == wal.FrameRetract {
		text = walreplay.FormatRetractText(targets)
	} else {
		var err error
		if batch, err = s.stream.Parse(label, text); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	job := &ingestJob{
		kind:    kind,
		session: label,
		batch:   batch,
		targets: targets,
		ctx:     context.WithoutCancel(ctx),
		at:      time.Now(),
		done:    make(chan ingestResult, 1),
	}

	if s.wal != nil {
		start := time.Now()
		seq, err := s.wal.Append(kind, label, text)
		if err != nil {
			// The frame is not in the log, though a constraints batch is
			// already in its session. Appending further frames would
			// leave a gap, so the log is poisoned: ingestion refuses with
			// ErrWALFailed until restart (reads keep working) and the log
			// on disk stays a consistent prefix of what was acknowledged.
			s.walFailed.Store(true)
			s.logError("wal append failed; refusing further ingestion", err)
			return nil, fmt.Errorf("%w: %v", ErrWALFailed, err)
		}
		job.seq = seq
		s.qmetrics.walAppend(time.Since(start))
	}
	if kind == wal.FrameConstraints && s.solver.Retractable() {
		// The retraction handle is the WAL sequence number — the log and
		// the API share one naming scheme, so a logged retract frame's
		// targets are frame seqs — or a process-local counter when the
		// log is off.
		job.handle = job.seq
		if job.handle == 0 {
			job.handle = s.handleSeq.Add(1)
		}
	}

	s.ages.push(job.at)
	s.queue <- job // cannot block: checked for room under acceptMu
	return job, nil
}

// durable blocks until the job's frame is on stable storage under
// SyncAlways (concurrent accepts share one fsync); with no log, or under
// batch/off, it returns immediately — the policy's documented trade-off.
func (s *Server) durable(job *ingestJob) error {
	if s.wal == nil || s.wal.Policy() != wal.SyncAlways || job.seq == 0 {
		return nil
	}
	if err := s.wal.Sync(); err != nil {
		s.walFailed.Store(true)
		s.logError("wal fsync failed; refusing further ingestion", err)
		return fmt.Errorf("%w: %v", ErrWALFailed, err)
	}
	return nil
}

func (s *Server) logError(msg string, err error) {
	if s.logger != nil {
		s.logger.Error(msg, "error", err.Error())
	}
}

// ingest is the single writer: it applies queued batches in arrival order
// until Shutdown asks it to drain, then flushes what is queued and closes
// the solver. One writer means every batch is one atomic span of the
// online solver, and readers only ever contend on the snapshot epoch
// check.
func (s *Server) ingest() {
	defer close(s.done)
	for {
		select {
		case job := <-s.queue:
			s.apply(job)
			s.syncAtIdle()
		case <-s.drainReq:
			for {
				select {
				case job := <-s.queue:
					s.apply(job)
				default:
					if s.wal != nil {
						if err := s.wal.Sync(); err != nil {
							s.logError("wal fsync at drain", err)
						}
					}
					_ = s.solver.Close()
					// Defence in depth: Shutdown's drainMu barrier means no
					// job can land after the flush above saw an empty queue,
					// but if one ever did, resolving it here with
					// ErrSolverClosed (→ 410) beats silently dropping it —
					// its waiter would otherwise stall to its deadline.
					s.resolveStragglers()
					return
				}
			}
		}
	}
}

// syncAtIdle lands appended frames whenever the queue goes empty — the
// batch boundary of the SyncBatch policy. Under SyncAlways frames were
// already synced at accept; under SyncOff Sync is a no-op.
func (s *Server) syncAtIdle() {
	if s.wal == nil || len(s.queue) > 0 {
		return
	}
	if err := s.wal.Sync(); err != nil {
		s.walFailed.Store(true)
		s.logError("wal fsync failed; refusing further ingestion", err)
	}
}

// resolveStragglers drains any job that slipped into the queue after the
// final flush and resolves its waiter with ErrSolverClosed.
func (s *Server) resolveStragglers() {
	for {
		select {
		case job := <-s.queue:
			s.ages.pop()
			job.done <- ingestResult{err: polce.ErrSolverClosed}
		default:
			return
		}
	}
}

// apply runs one job against the solver and resolves its waiter. A batch
// that introduced inconsistent constraints still applies in full — the
// solver records the inconsistency and keeps going, matching AddConstraint
// semantics — but the result carries an ErrInconsistent so synchronous
// clients see a 409. A retraction resolves its handles here, after every
// earlier job has applied, so a handle issued for a batch that was still
// queued when the DELETE arrived resolves correctly; an unknown or
// cross-session handle refuses the whole retraction with ErrUnknownBatch
// (→ 404), retracting nothing.
//
// On a traced request, apply emits the write-path spans under the
// request's http root: "queue-wait" (measured from enqueue to pickup) and
// "ingest-drain" or "retract-drain" around the solver call; a batch's
// drain gets a "cycle-search" child sized by the closure phase-timer
// delta — attributable because this single goroutine is the only closure
// driver.
func (s *Server) apply(job *ingestJob) {
	wait := time.Since(job.at)
	// Order matters for the oldest-age gauge: the job becomes "applying"
	// before it stops being "queued", so the gauge never reads idle while
	// work is outstanding.
	s.applyingSince.Store(job.at.UnixNano())
	defer s.applyingSince.Store(0)
	s.ages.pop()
	retract := job.kind == wal.FrameRetract
	name, key, size := "ingest-drain", "batch", len(job.batch)
	if retract {
		name, key, size = "retract-drain", "targets", len(job.targets)
	} else {
		s.qmetrics.observeWait(wait, size)
	}
	s.tracer.Emit(job.ctx, "queue-wait", job.at, wait, map[string]any{key: size})
	drainCtx, span := s.tracer.StartSpan(job.ctx, name)
	span.SetAttr(key, size)
	if job.seq != 0 {
		span.SetAttr("wal_seq", job.seq)
	}
	res := ingestResult{wait: wait}
	drainStart := time.Now()
	if retract {
		res.report, res.err = s.stream.Retract(drainCtx, job.session, job.targets)
		span.SetAttr("dirty_vars", res.report.DirtyVars)
	} else {
		var closure0 time.Duration
		if s.sm != nil && span != nil {
			closure0, _ = s.sm.Phases.Get(telemetry.PhaseClosure)
		}
		errsBefore := s.solver.ErrorCount()
		res.applied, res.err = s.stream.Add(drainCtx, job.handle, job.session, job.batch)
		s.ingested.Add(int64(res.applied))
		if delta := s.solver.ErrorCount() - errsBefore; res.err == nil && delta > 0 {
			last := error(polce.ErrInconsistent)
			if retained := s.solver.Errors(); len(retained) > 0 {
				last = retained[len(retained)-1]
			}
			res.err = fmt.Errorf("%d new inconsistency(ies), last: %w", delta, last)
		}
		if s.sm != nil && span != nil {
			closure1, _ := s.sm.Phases.Get(telemetry.PhaseClosure)
			if d := closure1 - closure0; d > 0 {
				s.tracer.Emit(drainCtx, "cycle-search", drainStart, d, map[string]any{"applied": res.applied})
			}
		}
		span.SetAttr("applied", res.applied)
	}
	res.version = s.solver.Version()
	s.lastVersion.Store(res.version)
	res.drain = time.Since(drainStart)
	span.SetAttr("version", res.version)
	if res.err != nil {
		span.SetAttr("error", res.err.Error())
	}
	span.End()
	job.done <- res
}
