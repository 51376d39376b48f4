package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"
)

// This file implements constraint retraction. The design (DESIGN.md §12)
// has three parts:
//
//  1. Batch footprints. With Options.Retractable set, every top-level
//     constraint is added inside a batch (BeginBatch/EndBatch; the façade
//     wraps single adds in implicit one-constraint batches). While a batch
//     is open the engine records, in the batch's record, every variable an
//     edge attempt or collapse touches — the *post-find endpoints*, fresh
//     and redundant attempts alike. Because both endpoints of every
//     insertion land in the inserting batch's footprint, no edge ever
//     crosses from a variable inside a union of footprints to one outside
//     it: footprint-connected components of batches are edge-disjoint
//     regions of the graph.
//
//  2. The footprint index. retractState.footprint maps every touched
//     variable to the live batches whose footprints hold it, and persists
//     across calls: a batch appends itself the first time it touches a
//     variable, and retraction deletes the entries it rolls back. Each
//     batch also counts its fresh insertions and collapses; the counters
//     drive the no-op fast path — retracting a batch that never mutated
//     the graph (every attempt redundant, no collapse) only unhooks it
//     and leaves the graph, version and least-solution cache untouched.
//
//  3. Rollback + ordered replay. RetractBatches computes the entanglement
//     fixpoint over the index: the dirty region is the union of footprints
//     of every batch reachable from the retracted ones through footprint
//     intersection. Every dirty variable is reset wholesale to its
//     freshly-created state (adjacency cleared, forwarding removed — this
//     un-collapses every witness in the region with no per-edge
//     surgery), and the surviving dirty batches are replayed in
//     their original order through the normal push/drain path. Clean
//     components are untouched and replay is confined to the dirty
//     region, so the result is bit-identical — partition signature and
//     least solutions — to a from-scratch solve of the surviving
//     constraints (the differential suite in retract_test.go is the gate).
//     The least-solution cache is invalidated for exactly the dirty cone
//     via the existing graphVersion/markLS machinery.
//
// A retraction costs O(footprint of the dirty region): it walks no list of
// every live batch or every variable, and the live-variable count in its
// report is O(1). The least-solution read that usually follows it still
// walks every live variable and predecessor edge (lsengine.go), without
// sorting, copying or allocating; only its re-evaluation is confined to
// the cone.
//
// The replay argument needs every mutation to happen inside a tracked
// batch: CyclePeriodic's interval-coupled global sweeps are rejected at
// construction, and an offline CollapseCycles on a retractable system
// taints it (subsequent retraction fails with ErrNotRetractable rather
// than returning wrong answers). Variable creation is never undone — the
// vocabulary (creation indices, random orders, term ids) is monotone,
// which is what lets a replayed batch reuse its original expression
// pointers and re-intern each term to the id it had.

// ErrUnknownBatch is returned by RetractBatches when an id does not name a
// live (previously added, not yet retracted) batch.
var ErrUnknownBatch = errors.New("polce: unknown constraint batch")

// ErrNotRetractable is returned by RetractBatches when the system was not
// built with Options.Retractable, or when the graph has been mutated
// outside batch tracking (an offline CollapseCycles) so replay could no
// longer reproduce it.
var ErrNotRetractable = errors.New("polce: solver not configured for retraction")

// RetractReport describes one RetractBatches pass: how many batches were
// retracted, the size of the dirty cone that was rolled back (DirtyVars out
// of TotalVars canonical variables at entry — the cone being much smaller
// than the graph is the whole point), and how much surviving work was
// replayed. NoOp reports the fast path: no retracted batch had ever
// mutated the graph, so only the batch records changed. The same struct
// is delivered to MetricsSink.RetractDone.
type RetractReport struct {
	// Duration is the wall-clock time of the whole retraction, rollback
	// and replay included.
	Duration time.Duration `json:"duration_ns"`
	// Batches is the number of batches retracted by this call.
	Batches int `json:"batches"`
	// DirtyVars is the number of variables in the rolled-back dirty cone;
	// TotalVars is the number of canonical variables when the call began.
	DirtyVars int `json:"dirty_vars"`
	TotalVars int `json:"total_vars"`
	// ReplayedBatches and ReplayedConstraints count the surviving batches
	// (and their top-level constraints) re-applied during the rebuild.
	ReplayedBatches     int `json:"replayed_batches"`
	ReplayedConstraints int `json:"replayed_constraints"`
	// NoOp reports that the graph was left physically untouched: every
	// retracted batch's attempts were redundant and it caused no collapse.
	NoOp bool `json:"noop"`
}

// retractCon is one recorded top-level constraint of a batch, kept for
// replay. The expression pointers stay valid across rollback because the
// vocabulary is never undone.
type retractCon struct{ l, r Expr }

// batchRecord is the undo-log entry for one batch: its constraints in
// application order, its variable footprint and its mutation counters.
type batchRecord struct {
	id      uint64
	cons    []retractCon
	touched []int32 // footprint in first-touch order, each variable once

	inserted  int // fresh edge insertions (including edges consumed by a collapse)
	collapses int // collapses this batch triggered
	errs      int // inconsistencies recorded while this batch was open
}

// mutated reports whether the batch changed the graph at all.
func (b *batchRecord) mutated() bool { return b.inserted > 0 || b.collapses > 0 }

// resetForReplay clears the footprint and counters while keeping the
// recorded constraints; the replay re-records them as it re-applies.
func (b *batchRecord) resetForReplay() {
	b.touched = b.touched[:0]
	b.inserted, b.collapses, b.errs = 0, 0, 0
}

// retractState is the per-system retraction bookkeeping, allocated only
// when Options.Retractable is set; a nil *retractState costs one branch
// per hook site on the hot paths.
type retractState struct {
	nextID  uint64 // batch ids are issued in application order
	active  *batchRecord
	batches map[uint64]*batchRecord

	// footprint indexes the live batches by variable: every live batch
	// whose footprint holds the variable, in touch order. Only the open
	// batch appends, so a batch that already touched a variable is its
	// last entry.
	footprint map[int32][]*batchRecord

	// errBatch runs parallel to System.errs: the batch id each retained
	// error is attributed to (0 when recorded outside any batch).
	errBatch []uint64

	// tainted is set when the graph is mutated with no batch open (an
	// offline CollapseCycles); retraction then refuses rather than replay
	// from an unreproducible state.
	tainted bool
}

func newRetractState() *retractState {
	return &retractState{
		batches:   make(map[uint64]*batchRecord),
		footprint: make(map[int32][]*batchRecord),
	}
}

// touch adds v to the open batch b's footprint, once.
func (r *retractState) touch(b *batchRecord, v int32) {
	bs := r.footprint[v]
	if n := len(bs); n > 0 && bs[n-1] == b {
		return
	}
	r.footprint[v] = append(bs, b)
	b.touched = append(b.touched, v)
}

// unhook removes b from the footprint index.
func (r *retractState) unhook(b *batchRecord) {
	for _, v := range b.touched {
		bs := r.footprint[v]
		if i := slices.Index(bs, b); i >= 0 {
			bs = slices.Delete(bs, i, i+1)
		}
		if len(bs) == 0 {
			delete(r.footprint, v)
		} else {
			r.footprint[v] = bs
		}
	}
}

// Retractable reports whether the system tracks batches for retraction.
func (s *System) Retractable() bool { return s.retract != nil }

// BatchCount returns the number of live (added, not yet retracted) batches
// tracked for retraction; zero when the system is not retractable.
func (s *System) BatchCount() int {
	if s.retract == nil {
		return 0
	}
	return len(s.retract.batches)
}

// BeginBatch opens a batch: until EndBatch, every AddConstraint is
// recorded under one retraction handle, returned here. On a
// non-retractable system it returns 0 and records nothing.
func (s *System) BeginBatch() uint64 {
	r := s.retract
	if r == nil {
		return 0
	}
	if r.active != nil {
		panic("core: BeginBatch inside an open batch")
	}
	r.nextID++
	b := &batchRecord{id: r.nextID}
	r.batches[b.id] = b
	r.active = b
	return b.id
}

// EndBatch closes the open batch (no-op when none is open).
func (s *System) EndBatch() {
	if r := s.retract; r != nil {
		r.active = nil
	}
}

// Hook helpers, called from the resolution engine behind a nil check on
// s.retract so the non-retractable hot path pays one branch per site.

// attempt records one edge attempt by the open batch: its variable
// endpoints join the footprint (x alone for a source or sink edge, with y
// -1; x and y for a variable edge x ⊆ y), and a fresh attempt counts as a
// mutation. That includes a fresh variable edge the online search consumes
// (collapsing instead of inserting): the collapse hook adds the merged
// variables, and the inserted counter keeps the batch off the no-op fast
// path. A fresh attempt with no batch open taints the system.
func (r *retractState) attempt(x, y int32, fresh bool) {
	b := r.active
	if b == nil {
		if fresh {
			r.tainted = true
		}
		return
	}
	r.touch(b, x)
	if y >= 0 {
		r.touch(b, y)
	}
	if fresh {
		b.inserted++
	}
}

func (s *System) retractCollapse(witness int32, merged []int32) {
	r := s.retract
	b := r.active
	if b == nil {
		r.tainted = true
		return
	}
	r.touch(b, witness)
	for _, v := range merged {
		r.touch(b, v)
	}
	b.collapses++
}

func (s *System) retractErr(retained bool) {
	r := s.retract
	var id uint64
	if b := r.active; b != nil {
		b.errs++
		id = b.id
	}
	if retained {
		r.errBatch = append(r.errBatch, id)
	}
}

// dropErrors removes every retained error attributed to a dirty batch and
// subtracts the dirty batches' full error counts (dropped ones included)
// from the running total. Survivors' errors are re-recorded by the replay.
func (s *System) dropErrors(dirty map[uint64]*batchRecord) {
	r := s.retract
	for _, b := range dirty {
		s.errCount -= b.errs
		b.errs = 0
	}
	errs := s.errs[:0]
	ids := r.errBatch[:0]
	for i, e := range s.errs {
		id := r.errBatch[i]
		if _, isDirty := dirty[id]; isDirty {
			continue
		}
		errs = append(errs, e)
		ids = append(ids, id)
	}
	s.errs = errs
	r.errBatch = ids
}

// RetractBatches removes the named batches' constraints as if they had
// never been added, preserving everything the surviving constraints
// justify. It validates every id first (ErrUnknownBatch names the first
// unknown one; nothing is retracted), computes the entangled dirty region,
// rolls it back, and replays the surviving batches of the region in their
// original order. Duplicate ids are allowed and retract once.
//
// The call must not run inside an open batch, and the worklist is empty
// between top-level adds, so the façade can call this under the same lock
// as AddConstraint.
func (s *System) RetractBatches(ids []uint64) (RetractReport, error) {
	r := s.retract
	if r == nil {
		return RetractReport{}, ErrNotRetractable
	}
	if r.active != nil {
		panic("core: RetractBatches inside an open batch")
	}
	if len(s.work) != 0 {
		panic("core: RetractBatches with a non-empty worklist")
	}
	targets := make(map[uint64]*batchRecord, len(ids))
	for _, id := range ids {
		b, ok := r.batches[id]
		if !ok {
			return RetractReport{}, fmt.Errorf("%w: batch %d", ErrUnknownBatch, id)
		}
		targets[id] = b
	}
	if r.tainted {
		return RetractReport{}, fmt.Errorf("%w: graph was mutated outside batch tracking (offline collapse)", ErrNotRetractable)
	}
	start := time.Now()
	rep := RetractReport{
		Batches:   len(targets),
		TotalVars: s.store.NumLive(),
	}

	// Seed the entanglement fixpoint with the retracted batches that
	// actually mutated the graph.
	var queue []*batchRecord
	for _, b := range targets {
		if b.mutated() {
			queue = append(queue, b)
		}
	}

	if len(queue) == 0 {
		// Fast path: no retracted batch ever mutated the graph. Unhook
		// them and drop their errors; edges stay (their inserting batches
		// survive), the version moves only if errors changed, and the
		// least-solution cache stays hot.
		anyErrs := false
		for _, b := range targets {
			r.unhook(b)
			if b.errs > 0 {
				anyErrs = true
			}
		}
		if anyErrs {
			s.dropErrors(targets)
			s.graphVersion++
		}
		s.removeBatches(targets)
		rep.NoOp = !anyErrs
		rep.Duration = time.Since(start)
		s.finishRetract(rep)
		return rep, nil
	}

	// Entanglement fixpoint: a batch is dirty when its footprint meets a
	// dirty variable; a variable is dirty when a dirty batch touched it.
	// Because every insertion put both endpoints in its batch's footprint,
	// the dirty variables form edge-closed components: no edge connects
	// them to the clean remainder. Every batch indexed under a dirty
	// variable is dirty, so the variable's index entry is deleted as it
	// is reached — a touched variable without an entry is already dirty —
	// and the replay below re-indexes the survivors.
	dirtyBatches := make(map[uint64]*batchRecord, len(queue))
	for _, b := range queue {
		dirtyBatches[b.id] = b
	}
	var dirtyVars []int32
	for len(queue) > 0 {
		b := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, v := range b.touched {
			bs, ok := r.footprint[v]
			if !ok {
				continue
			}
			delete(r.footprint, v)
			dirtyVars = append(dirtyVars, v)
			for _, nb := range bs {
				if _, ok := dirtyBatches[nb.id]; !ok {
					dirtyBatches[nb.id] = nb
					queue = append(queue, nb)
				}
			}
		}
	}
	// Unhook the no-op targets the fixpoint did not reach and fold them in
	// so the bookkeeping below removes them uniformly.
	for id, b := range targets {
		if _, ok := dirtyBatches[id]; !ok {
			r.unhook(b)
			dirtyBatches[id] = b
		}
	}

	// Rollback: reset every dirty variable to its created state (this
	// un-collapses every witness in the region and re-lists it as live),
	// drop the dirty batches' errors, and invalidate the dirty cone's
	// least-solution entries.
	for _, v := range dirtyVars {
		s.resetVar(v)
	}
	for _, b := range dirtyBatches {
		if b.errs > 0 {
			s.dropErrors(dirtyBatches)
			break
		}
	}
	for _, v := range dirtyVars {
		s.markLS(v)
	}

	// Replay the surviving dirty batches in original application order,
	// which is ascending id. Clean batches' regions are untouched; dirty
	// survivors rebuild their components exactly as a from-scratch solve
	// of the survivors would.
	s.removeBatches(targets)
	var replay []*batchRecord
	for id, b := range dirtyBatches {
		if _, isTarget := targets[id]; !isTarget {
			replay = append(replay, b)
		}
	}
	slices.SortFunc(replay, func(a, b *batchRecord) int { return cmp.Compare(a.id, b.id) })
	for _, b := range replay {
		b.resetForReplay()
		r.active = b
		for _, c := range b.cons {
			s.push(c.l, c.r)
			s.drain(false)
		}
		r.active = nil
		rep.ReplayedBatches++
		rep.ReplayedConstraints += len(b.cons)
	}

	rep.DirtyVars = len(dirtyVars)
	rep.Duration = time.Since(start)
	s.finishRetract(rep)
	return rep, nil
}

// resetVar returns v to its freshly-created state: the store releases
// its adjacency and un-forwards it, and its search mark and
// least-solution slot are zeroed. Only the slot's pending mark survives:
// it records that the engine already lists v for its next pass, and the
// list outlives the reset.
func (s *System) resetVar(v int32) {
	s.store.ResetVar(v)
	s.marks[v] = 0
	if s.opt.Form != SF {
		s.ls[v] = lsSlot{pending: s.ls[v].pending}
	}
}

// removeBatches deletes the retracted batches' records.
func (s *System) removeBatches(targets map[uint64]*batchRecord) {
	for id := range targets {
		delete(s.retract.batches, id)
	}
}

// finishRetract updates the retraction counters and notifies the sink.
func (s *System) finishRetract(rep RetractReport) {
	s.stats.Retractions++
	s.stats.RetractConeVars += int64(rep.DirtyVars)
	s.stats.RetractReplayed += int64(rep.ReplayedConstraints)
	if s.opt.Metrics != nil {
		s.opt.Metrics.RetractDone(rep)
	}
}
