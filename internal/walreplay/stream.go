package walreplay

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"polce"
	"polce/internal/scl"
	"polce/internal/wal"
)

// Stream is the one owner of what a logged frame means: the per-session
// SCL programs and binders that turn frame text into solver constraints,
// and the table of live retraction handles. The live server admits and
// applies writes through it, and crash recovery and Replay feed it logged
// frames through Apply, so a replayed log runs the same code the live
// server ran — which is what makes the variable creation order, and with
// it the seeded order that orients edges, come out the same.
//
// Sessions partition the SCL namespace: two sessions can both declare `x`
// and get distinct solver variables, while every session's constraints
// flow into the one solver. Every method is safe for concurrent use, but
// frame order is the caller's: the server calls Parse under its admission
// lock and Add and Retract from its single ingester. No lock of the stream
// is held while the solver applies or retracts a batch.
type Stream struct {
	solver *polce.Solver

	mu        sync.Mutex
	files     map[string]*scl.File   // session → its program so far
	binders   map[string]*scl.Binder // session → its variables and terms
	live      map[uint64]liveBatch   // retraction handle → owner and batch
	retracted int                    // batches withdrawn by Retract
}

// liveBatch is one added batch that can still be retracted: the session
// that owns it and its solver batch id.
type liveBatch struct {
	session string
	id      polce.BatchID
}

// NewStream returns a stream with no sessions over solver.
func NewStream(solver *polce.Solver) *Stream {
	return &Stream{
		solver:  solver,
		files:   map[string]*scl.File{},
		binders: map[string]*scl.Binder{},
		live:    map[uint64]liveBatch{},
	}
}

// Parse appends text's statements to the session's program, creating the
// session on first use, and lowers the new constraints, creating their
// solver variables in order of first use. It is atomic on error: a text
// that does not parse leaves the session as it was (and unborn if it was
// new), so the same batch can be corrected and resubmitted.
func (st *Stream) Parse(session, text string) ([]polce.Constraint, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	f, ok := st.files[session]
	if !ok {
		f = scl.MustParse("")
	}
	cs, err := f.ParseAppend(text)
	if err != nil {
		return nil, err
	}
	if !ok {
		st.files[session], st.binders[session] = f, scl.NewBinder(f, st.solver)
	}
	return st.binders[session].Lower(cs), nil
}

// Add applies a lowered batch and, when the solver tracks batches and
// handle is not zero, records handle as its retraction handle, owned by
// session. It returns how many constraints were applied.
func (st *Stream) Add(ctx context.Context, handle uint64, session string, batch []polce.Constraint) (int, error) {
	applied, id, err := st.solver.AddBatchContext(ctx, batch)
	if handle != 0 && id != 0 {
		st.mu.Lock()
		st.live[handle] = liveBatch{session: session, id: id}
		st.mu.Unlock()
	}
	return applied, err
}

// Retract withdraws the batches named by handles, all or nothing: unless
// every handle is live and owned by session, nothing is retracted and the
// error matches polce.ErrUnknownBatch. A solver that does not track
// batches fails with polce.ErrNotRetractable.
func (st *Stream) Retract(ctx context.Context, session string, handles []uint64) (polce.RetractReport, error) {
	if !st.solver.Retractable() {
		return polce.RetractReport{}, polce.ErrNotRetractable
	}
	ids := make([]polce.BatchID, len(handles))
	st.mu.Lock()
	for i, h := range handles {
		b, ok := st.live[h]
		if !ok || b.session != session {
			st.mu.Unlock()
			return polce.RetractReport{}, fmt.Errorf("%w: batch %d", polce.ErrUnknownBatch, h)
		}
		ids[i] = b.id
	}
	st.mu.Unlock()
	report, err := st.solver.RetractBatchContext(ctx, ids...)
	if err == nil {
		st.mu.Lock()
		for _, h := range handles {
			delete(st.live, h)
		}
		st.retracted += len(handles)
		st.mu.Unlock()
	}
	return report, err
}

// Apply replays one logged frame and returns how many constraints it
// applied. A constraints frame is parsed and added under its sequence
// number, which is the handle the live server issued for it. A retract
// frame names the sequence numbers of the constraint frames it withdraws;
// if one of them is not live and owned by the frame's session at this
// point of the stream, the live DELETE failed the same check after its
// frame was logged, so the frame retracts nothing here either. Any other
// failure names the frame: a constraints frame that does not parse, or a
// retract frame against a solver that does not track batches, means the
// log does not belong to these options or this vocabulary, or was damaged
// beyond the CRC's reach — the live server parses before it logs, and
// refuses a DELETE on such a solver before logging it.
func (st *Stream) Apply(f wal.Frame) (int, error) {
	ctx := context.Background()
	if f.Kind == wal.FrameRetract {
		targets, err := ParseRetractText(f.Text)
		if err == nil {
			_, err = st.Retract(ctx, f.Session, targets)
		}
		if err != nil && !errors.Is(err, polce.ErrUnknownBatch) {
			return 0, fmt.Errorf("walreplay: frame %d: %w", f.Seq, err)
		}
		return 0, nil
	}
	batch, err := st.Parse(f.Session, f.Text)
	if err != nil {
		return 0, fmt.Errorf("walreplay: frame %d does not parse: %w", f.Seq, err)
	}
	n, err := st.Add(ctx, f.Seq, f.Session, batch)
	if err != nil {
		return n, fmt.Errorf("walreplay: frame %d: %w", f.Seq, err)
	}
	return n, nil
}

// Lookup resolves a variable name that an earlier batch of session
// interned.
func (st *Stream) Lookup(session, name string) (*polce.Var, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	b, ok := st.binders[session]
	if !ok {
		return nil, false
	}
	v, ok := b.Vars[name]
	return v, ok
}

// Counts reports how many variables session has interned, how many
// sessions exist, and how many batches Retract has withdrawn.
func (st *Stream) Counts(session string) (vars, sessions, retracted int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if b, ok := st.binders[session]; ok {
		vars = len(b.Vars)
	}
	return vars, len(st.binders), st.retracted
}
