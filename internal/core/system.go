package core

import (
	"math"
	"math/rand"
	"time"

	"polce/internal/core/graph"
)

// constraint is a pending inclusion awaiting resolution. It holds no
// pointer: each operand is a kind and a 32-bit reference — a variable's
// dense id, a term's id, or an index into System.exprs for a union or an
// intersection (see operand). A conSingle entry is the inclusion l ⊆ r.
// Source propagation pushes batch entries instead, each standing for one
// inclusion per element of a window (term sets hold ids; a term is looked
// up in the store's table only where the inclusion needs the *Term
// itself):
//
//	conSrcRange:  PredS(from)[i] ⊆ r        for i in [0, hi)
//	conSinkRange: l ⊆ SuccK(from)[i]        for i in [0, hi)
//	conSrcFan:    l ⊆ find(System.fan[i])   for i in the stack's last hi
//
// A range entry is sound because term sets are append-only (terms never
// forward and TermSet never compacts), so the window [0, hi) keeps
// denoting the same elements no matter how the set grows — only the
// *backing storage* may move, and the elements are re-read from the set
// at pop time. A fan entry copies its targets onto the fan stack instead,
// because a variable set compacts in place; the topmost fan entry's
// targets are always the stack's last hi elements. Draining a batch
// consumes its highest element first and narrows the entry in place, so
// the work an element generates drains before the rest of its window —
// exactly the LIFO order one conSingle push per element would produce.
type constraint struct {
	l, r   int32 // operand references; a fan entry's l is its source term
	from   int32 // range entries: the variable whose term set the window indexes
	hi     int32 // elements left: window [0, hi), or the fan stack's last hi
	kind   uint8 // conSingle, conSrcRange, conSinkRange, conSrcFan
	lk, rk uint8 // operand kinds of l and r
}

const (
	conSingle uint8 = iota
	conSrcRange
	conSinkRange
	conSrcFan
)

// Operand kinds. A term reaches the worklist by id once it is interned,
// as the element of a term set; a term named by a pushed expression
// waits in the side table until step interns it as an edge endpoint, so
// a term that only decomposes (or is the trivial 0 or 1) never takes an
// id.
const (
	opVar  uint8 = iota // reference: a variable's dense id
	opTerm              // reference: an interned term's id
	opExpr              // reference: an index in System.exprs (a term, union or intersection)
)

// System is an online inclusion-constraint solver: the resolution engine of
// the three-layer stack. It owns the worklist and the resolution rules
// (step/decompose/drain), the closure rule and the cycle policies (cycle.go,
// strategy.go); the variables and edges live in a graph.Store.
// Constraints added with AddConstraint are resolved to atomic form and the
// constraint graph is kept closed under the transitive closure rule after
// every update; with an online cycle policy, cyclic constraints are
// detected and collapsed at every variable-variable edge insertion.
//
// A System is not safe for concurrent use; the polce façade adds locking.
type System struct {
	opt Options
	rng *rand.Rand

	store graph.Store

	// Cycle-policy state. online is nil unless opt.Cycles is an online
	// policy; sweepInterval and lastSweep (the Work count at the last
	// sweep) drive CyclePeriodic.
	online        *onlineSearch
	sweepInterval int64
	lastSweep     int64

	// marks is the per-id epoch mark of the chain search and the
	// least-solution walk; markEpoch is the last epoch handed out
	// (nextMarks).
	marks     []uint32
	markEpoch uint32

	work  []constraint // LIFO worklist of pending constraints
	exprs []Expr       // the unions and intersections pending entries name
	stats Stats

	// Batch-propagation state (see the constraint type). Term-set
	// crossings push one range entry and a source's fan-out one fan entry
	// instead of one entry per element. fan is the fan entries' target
	// stack. deferredFree holds collapsed variables whose term sets pending
	// ranges may still reference; their storage is released when the
	// worklist empties.
	fan          []int32
	deferredFree []int32
	merged       []int32 // scratch: the variables one collapse merges
	deltaRanges  int64   // range entries pushed
	deltaMaxSpan int     // widest range window pushed
	workHWM      int     // worklist high-water mark (entries; a batch counts once)

	errs     []error
	errCount int

	skipClosure bool // build the initial graph only (no closure, no cycles)

	reportedWork, reportedRedundant int64 // Stats at the last ClosureDone

	// Least-solution engine state (inductive form; see lsengine.go).
	// graphVersion is bumped only by mutations that can change a least
	// solution — new source edges, new predecessor edges, collapses — so
	// redundant re-additions leave the cache hot. lsVersion is the graph
	// version the last pass ran at, and lsPending seeds the next pass's
	// dirty cone. ls is the engine's per-id slot.
	graphVersion uint64
	lsVersion    uint64
	lsEngine     *lsEngine
	lsPending    []int32
	ls           []lsSlot

	// Retraction bookkeeping (see retract.go); nil unless
	// Options.Retractable, so every hook site pays one branch.
	retract *retractState
}

// nextMarks reserves n fresh epochs for marks and returns the first.
// The chain search and the least-solution walk both draw from it, so a
// mark left by one is always older than every epoch the other compares
// against. Before the counter would wrap, every mark is cleared and the
// epochs start again.
func (s *System) nextMarks(n uint32) uint32 {
	if s.markEpoch > math.MaxUint32-n {
		clear(s.marks)
		s.markEpoch = 0
	}
	first := s.markEpoch + 1
	s.markEpoch += n
	return first
}

// maxErrors bounds how many inconsistent-constraint errors a System
// retains; further ones are counted but dropped.
const maxErrors = 16

// NewSystem creates an empty constraint system with the given options.
// Any Form but SF is inductive form, and an unknown cycle policy is
// CycleNone.
func NewSystem(opt Options) *System {
	if opt.Cycles == CycleOracle && opt.Oracle == nil {
		panic("core: CycleOracle requires Options.Oracle")
	}
	if opt.Form != SF {
		opt.Form = IF
	}
	s := &System{opt: opt, rng: rand.New(rand.NewSource(opt.Seed))}
	switch opt.Cycles {
	case CycleOnline, CycleOnlineIncreasing:
		s.online = &onlineSearch{sys: s, increasing: opt.Cycles == CycleOnlineIncreasing}
	case CyclePeriodic:
		s.sweepInterval = int64(opt.PeriodicInterval)
		if s.sweepInterval <= 0 {
			s.sweepInterval = 1000
		}
	case CycleOracle:
	default:
		s.opt.Cycles = CycleNone
	}
	if opt.Retractable {
		if opt.Cycles == CyclePeriodic {
			panic("core: Options.Retractable requires a local cycle policy; periodic sweeps couple batches through a global edge counter")
		}
		s.retract = newRetractState()
	}
	return s
}

// NewInitialGraph creates a system that resolves constraints to atomic
// edges but performs no closure and no cycle elimination. The resulting
// graph is the paper's "initial graph", used for Table 1's initial node,
// edge and SCC statistics.
func NewInitialGraph(opt Options) *System {
	s := NewSystem(opt)
	s.skipClosure = true
	return s
}

// Form returns the graph representation in use.
func (s *System) Form() Form { return s.opt.Form }

// Policy returns the cycle-elimination policy in use.
func (s *System) Policy() CyclePolicy { return s.opt.Cycles }

// Fresh creates a new set variable. Under the oracle policy, a fresh
// variable whose creation index the oracle maps into an earlier strongly
// connected component is not allocated at all: the component's witness is
// returned instead, so cycles never materialise.
func (s *System) Fresh(name string) *Var {
	idx := s.store.NumCreated()
	if s.opt.Cycles == CycleOracle {
		if v := s.oracleWitness(idx); v != nil {
			s.store.AddAlias(v)
			s.stats.VarsEliminated++
			return v
		}
	}
	var order uint64
	switch s.opt.Order {
	case OrderCreation:
		order = uint64(idx)
	case OrderReverseCreation:
		order = ^uint64(idx)
	default:
		order = s.rng.Uint64()
	}
	v := s.store.Fresh(name, order)
	s.marks = append(s.marks, 0)
	if s.opt.Form != SF {
		s.ls = append(s.ls, lsSlot{})
	}
	s.stats.VarsCreated++
	return v
}

// AddConstraint adds l ⊆ r and immediately restores closure (this is the
// "online" in online cycle elimination: the graph is updated and searched
// at every constraint). The least-solution cache is invalidated by the
// edge insertions themselves (markLS), so a constraint whose edges are
// all already present leaves the cache hot.
func (s *System) AddConstraint(l, r Expr) {
	if s.retract != nil {
		if b := s.retract.active; b != nil {
			b.cons = append(b.cons, retractCon{l: l, r: r})
		}
	}
	s.push(l, r)
	s.drain(true)
}

// push queues l ⊆ r.
func (s *System) push(l, r Expr) {
	lk, lr := s.operand(l)
	rk, rr := s.operand(r)
	s.pushOp(lk, lr, rk, rr)
}

// pushOp queues an inclusion between two encoded operands.
func (s *System) pushOp(lk uint8, l int32, rk uint8, r int32) {
	s.work = append(s.work, constraint{l: l, r: r, lk: lk, rk: rk})
}

// operand encodes e as a worklist operand: a variable by its dense id,
// anything else by its index in s.exprs, which the drain clears when it
// ends.
func (s *System) operand(e Expr) (uint8, int32) {
	if v, ok := e.(*Var); ok {
		return opVar, v.DenseID()
	}
	s.exprs = append(s.exprs, e)
	return opExpr, int32(len(s.exprs) - 1)
}

// expr decodes an operand back to its expression.
func (s *System) expr(k uint8, ref int32) Expr {
	switch k {
	case opVar:
		return s.store.Handle(ref)
	case opTerm:
		return s.store.Term(graph.TermID(ref))
	}
	return s.exprs[ref]
}

// termID returns a term operand's id, interning a side-table term.
func (s *System) termID(k uint8, ref int32) graph.TermID {
	if k == opExpr {
		return s.store.Intern(s.exprs[ref].(*Term))
	}
	return graph.TermID(ref)
}

// pushSrcRange batches the inclusions PredS(from)[0:n] ⊆ target as one
// worklist entry (no-op window when n is zero).
func (s *System) pushSrcRange(from int32, tk uint8, target int32, n int) {
	if n == 0 {
		return
	}
	s.work = append(s.work, constraint{r: target, rk: tk, from: from, hi: int32(n), kind: conSrcRange})
	s.deltaRanges++
	if n > s.deltaMaxSpan {
		s.deltaMaxSpan = n
	}
}

// pushSinkRange batches the inclusions l ⊆ SuccK(from)[0:n].
func (s *System) pushSinkRange(lk uint8, l int32, from int32, n int) {
	if n == 0 {
		return
	}
	s.work = append(s.work, constraint{l: l, lk: lk, from: from, hi: int32(n), kind: conSinkRange})
	s.deltaRanges++
	if n > s.deltaMaxSpan {
		s.deltaMaxSpan = n
	}
}

// pushSrcFan batches the inclusions t ⊆ y for every y in targets as one
// worklist entry, copying targets onto the fan stack.
func (s *System) pushSrcFan(t graph.TermID, targets []int32) {
	if len(targets) == 0 {
		return
	}
	s.fan = append(s.fan, targets...)
	s.work = append(s.work, constraint{l: int32(t), lk: opTerm, hi: int32(len(targets)), kind: conSrcFan})
}

// narrowTop shrinks the batch entry at the top of the worklist to its
// first n elements, popping it when none remain.
func (s *System) narrowTop(n int) {
	if n == 0 {
		s.work = s.work[:len(s.work)-1]
	} else {
		s.work[len(s.work)-1].hi = int32(n)
	}
}

// drain empties the worklist. topLevel marks drains triggered directly by
// AddConstraint: only those report ClosureDone, so offline collapse drains
// (CollapseCycles, retraction replays) are not misattributed as closure
// time; their Work is reported with the next top-level drain's.
func (s *System) drain(topLevel bool) {
	report := topLevel && s.opt.Metrics != nil
	var t0 time.Time
	if report {
		t0 = time.Now()
	}
	for len(s.work) > 0 {
		if s.opt.Cycles == CyclePeriodic {
			s.sweepIfDue()
		}
		if len(s.work) > s.workHWM {
			s.workHWM = len(s.work)
		}
		c := s.work[len(s.work)-1]
		switch c.kind {
		case conSrcRange:
			if c.rk == opVar {
				s.srcRun(s.store.TermIDs(c.from, graph.PredS)[:c.hi], s.find(c.r))
				continue
			}
			s.narrowTop(int(c.hi) - 1)
			t := s.store.TermIDs(c.from, graph.PredS)[c.hi-1]
			s.step(opTerm, int32(t), c.rk, c.r)
		case conSinkRange:
			s.narrowTop(int(c.hi) - 1)
			t := s.store.TermIDs(c.from, graph.SuccK)[c.hi-1]
			if c.lk == opVar {
				s.addSink(s.find(c.l), t)
				continue
			}
			s.step(c.lk, c.l, opTerm, int32(t))
		case conSrcFan:
			s.fanRun(graph.TermID(c.l), int(c.hi))
		default:
			s.work = s.work[:len(s.work)-1]
			s.step(c.lk, c.l, c.rk, c.r)
		}
	}
	clear(s.exprs)
	s.exprs = s.exprs[:0]
	s.flushDelta()
	if report {
		w, r := s.stats.Work, s.stats.Redundant
		s.opt.Metrics.ClosureDone(time.Since(t0), w-s.reportedWork, r-s.reportedRedundant)
		s.reportedWork, s.reportedRedundant = w, r
	}
}

// runStop is the index a redundant run over the top n elements of a batch
// stops at: all of them, except under a periodic policy, whose sweeps run
// between worklist steps and read Work, so there each step consumes one.
func (s *System) runStop(n int) int {
	if s.opt.Cycles == CyclePeriodic {
		return n - 1
	}
	return 0
}

// srcRun drains the top entry, a source range terms ⊆ x, highest index
// first. Terms x already holds are consumed in one tight loop, each
// counted exactly as addSource counts a redundant attempt; the first new
// term narrows the entry past itself and goes through addSource, so its
// work drains before the rest of the window.
func (s *System) srcRun(terms []graph.TermID, x int32) {
	i := len(terms)
	for stop := s.runStop(i); i > stop; {
		i--
		t := terms[i]
		if !s.store.HasTerm(x, graph.PredS, t) {
			s.narrowTop(i)
			s.addSource(t, x)
			return
		}
		s.redundantSource(x)
	}
	s.narrowTop(i)
}

// fanRun drains the top entry, a fan of t ⊆ each of its n targets on the
// fan stack, the way srcRun drains a range.
func (s *System) fanRun(t graph.TermID, n int) {
	for stop := s.runStop(n); n > stop; {
		n--
		y := s.find(s.fan[len(s.fan)-1])
		s.fan = s.fan[:len(s.fan)-1]
		if !s.store.HasTerm(y, graph.PredS, t) {
			s.narrowTop(n)
			s.addSource(t, y)
			return
		}
		s.redundantSource(y)
	}
	s.narrowTop(n)
}

// flushDelta runs at the end of every drain, when no range entry is
// pending: collapsed variables' storage, kept alive until now because a
// range entry may still re-read an absorbed variable's term sets, is
// released.
func (s *System) flushDelta() {
	for _, a := range s.deferredFree {
		s.store.Release(a)
	}
	s.deferredFree = s.deferredFree[:0]
}

// step resolves one constraint to atomic form, applying the resolution
// rules R of Figure 1 plus the set-operation rules of the full language:
// unions decompose on the left, intersections on the right.
func (s *System) step(lk uint8, l int32, rk uint8, r int32) {
	var le, re Expr // the side-table expressions, when an operand is one
	if lk == opExpr {
		le = s.exprs[l]
	}
	if rk == opExpr {
		re = s.exprs[r]
	}
	if isZero(le) || isOne(re) {
		return // 0 ⊆ R and L ⊆ 1 always hold
	}
	if u, ok := le.(*Union); ok {
		for _, e := range u.Exprs() {
			ek, er := s.operand(e)
			s.pushOp(ek, er, rk, r)
		}
		return
	}
	if i, ok := re.(*Intersection); ok {
		for _, e := range i.Exprs() {
			ek, er := s.operand(e)
			s.pushOp(lk, l, ek, er)
		}
		return
	}
	if _, ok := re.(*Union); ok {
		s.failExpr("union on the right-hand side of", s.expr(lk, l), re)
		return
	}
	if _, ok := le.(*Intersection); ok {
		s.failExpr("intersection on the left-hand side of", le, s.expr(rk, r))
		return
	}
	switch {
	case lk == opVar && rk == opVar:
		s.addVarEdge(s.find(l), s.find(r))
	case lk == opVar:
		s.addSink(s.find(l), s.termID(rk, r))
	case rk == opVar:
		s.addSource(s.termID(lk, l), s.find(r))
	default:
		s.decompose(s.expr(lk, l).(*Term), s.expr(rk, r).(*Term))
	}
}

// decompose applies the structural rule: c(a1..an) ⊆ c(b1..bn) holds iff
// ai ⊆ bi at covariant positions and bi ⊆ ai at contravariant ones.
// Distinct constructors are inconsistent. A pair step would drop at once
// (0 ⊆ R or L ⊆ 1) is not pushed.
func (s *System) decompose(l, r *Term) {
	c := l.Con()
	if c != r.Con() {
		s.fail(l, r)
		return
	}
	for i := 0; i < c.Arity(); i++ {
		a, b := l.Arg(i), r.Arg(i)
		if c.Variance(i) == Contravariant {
			a, b = b, a
		}
		if isZero(a) || isOne(b) {
			continue
		}
		s.push(a, b)
	}
}

// fail records an inconsistent constraint between constructed terms.
func (s *System) fail(l, r *Term) {
	s.errCount++
	retained := len(s.errs) < maxErrors
	if retained {
		s.errs = append(s.errs, inconsistentf(l, r, "core: inconsistent constraint %s ⊆ %s", l, r))
	}
	if s.retract != nil {
		s.retractErr(retained)
	}
}

// failExpr records an unsupported expression position.
func (s *System) failExpr(what string, l, r Expr) {
	s.errCount++
	retained := len(s.errs) < maxErrors
	if retained {
		s.errs = append(s.errs, inconsistentf(l, r, "core: %s a constraint is not expressible: %s ⊆ %s", what, l, r))
	}
	if s.retract != nil {
		s.retractErr(retained)
	}
}

// Errors returns the retained inconsistency errors: at most 16, further
// ones are only counted.
func (s *System) Errors() []error { return s.errs }

// ErrorCount returns the total number of inconsistencies seen, including
// dropped ones.
func (s *System) ErrorCount() int { return s.errCount }

// redundantSource counts an attempted source edge into x that found the
// edge already present.
func (s *System) redundantSource(x int32) {
	s.stats.Work++
	s.stats.Redundant++
	if s.retract != nil {
		s.retract.attempt(x, -1, false)
	}
}

// addSource inserts the source edge t ⊆ x and pairs t with x's successors.
func (s *System) addSource(t graph.TermID, x int32) {
	if !s.store.AddTerm(x, graph.PredS, t) {
		s.redundantSource(x)
		return
	}
	s.stats.Work++
	if s.retract != nil {
		s.retract.attempt(x, -1, true)
	}
	s.markLS(x)
	if s.opt.Metrics != nil {
		s.opt.Metrics.Edge(EventSourceEdge, s.store.Term(t), s.store.Handle(x), s.stats.Work)
	}
	if s.skipClosure {
		return
	}
	s.store.Clean(x)
	s.pushSrcFan(t, s.store.Vars(x, graph.SuccV))
	s.pushSinkRange(opTerm, int32(t), x, len(s.store.TermIDs(x, graph.SuccK)))
}

// addSink inserts the sink edge x ⊆ t and pairs x's predecessors with t.
func (s *System) addSink(x int32, t graph.TermID) {
	s.stats.Work++
	if !s.store.AddTerm(x, graph.SuccK, t) {
		s.stats.Redundant++
		if s.retract != nil {
			s.retract.attempt(x, -1, false)
		}
		return
	}
	if s.retract != nil {
		s.retract.attempt(x, -1, true)
	}
	if s.opt.Metrics != nil {
		s.opt.Metrics.Edge(EventSinkEdge, s.store.Handle(x), s.store.Term(t), s.stats.Work)
	}
	if s.skipClosure {
		return
	}
	s.store.Clean(x)
	s.pushSrcRange(x, opTerm, int32(t), len(s.store.TermIDs(x, graph.PredS)))
	for _, v := range s.store.Vars(x, graph.PredV) {
		s.pushOp(opVar, s.find(v), opTerm, int32(t))
	}
}

// addVarEdge inserts the variable-variable constraint x ⊆ y. Standard
// form always stores it as a successor edge of x; inductive form stores it
// on the higher-ordered endpoint, as a successor edge of x when o(y) <
// o(x) and a predecessor edge of y otherwise, so every stored edge points
// down-order. With an online policy the closing-chain search runs first
// and, if a cycle is found, the whole chain is collapsed instead of
// inserting the edge.
func (s *System) addVarEdge(x, y int32) {
	if x == y {
		return // self-inclusion is trivial
	}
	st := &s.store
	st.Clean(x)
	st.Clean(y)
	asSucc := s.opt.Form == SF || st.Before(y, x)
	s.stats.Work++
	if asSucc && st.HasVar(x, graph.SuccV, y) || !asSucc && st.HasVar(y, graph.PredV, x) {
		s.stats.Redundant++
		if s.retract != nil {
			s.retract.attempt(x, y, false)
		}
		return
	}
	if s.retract != nil {
		s.retract.attempt(x, y, true)
	}
	if !s.skipClosure && s.online != nil {
		if s.online.pendingEdge(x, y, asSucc) {
			return
		}
	}
	if s.opt.Metrics != nil {
		s.opt.Metrics.Edge(EventVarEdge, st.Handle(x), st.Handle(y), s.stats.Work)
	}
	if asSucc {
		st.AddVar(x, graph.SuccV, y)
		if s.skipClosure {
			return
		}
		s.pushSrcRange(x, opVar, y, len(st.TermIDs(x, graph.PredS)))
		for _, v := range st.Vars(x, graph.PredV) {
			s.pushOp(opVar, s.find(v), opVar, y)
		}
	} else {
		st.AddVar(y, graph.PredV, x)
		s.markLS(y)
		if s.skipClosure {
			return
		}
		for _, w := range st.Vars(y, graph.SuccV) {
			s.pushOp(opVar, x, opVar, s.find(w))
		}
		s.pushSinkRange(opVar, x, y, len(st.TermIDs(y, graph.SuccK)))
	}
}

// Stats returns the solver's counters so far.
func (s *System) Stats() Stats {
	st := s.stats
	return st
}

// StorageStats describes the drain's shape: the worklist high-water mark,
// and how the drain batched term-set crossings into range entries. These
// are deliberately *not* part of Stats, which pins the closure's
// behaviour, not its shape.
type StorageStats struct {
	// WorklistHWM is the worklist's high-water mark in entries (a range
	// or fan entry counts once however many elements it holds).
	WorklistHWM int `json:"worklist_hwm"`
	// DeltaRanges counts range entries pushed; DeltaMaxSpan is the widest
	// window among them. Fan entries are not ranges and count in neither.
	DeltaRanges  int64 `json:"delta_ranges"`
	DeltaMaxSpan int   `json:"delta_max_span"`
}

// StorageStats reports the drain-shape counters.
func (s *System) StorageStats() StorageStats {
	return StorageStats{
		WorklistHWM:  s.workHWM,
		DeltaRanges:  s.deltaRanges,
		DeltaMaxSpan: s.deltaMaxSpan,
	}
}

// Version returns the least-solution epoch of the graph: it advances
// exactly when a mutation that can change some least solution is applied
// (a new source edge, a new predecessor edge, a collapse), and holds still
// across redundant re-additions. Snapshot layers key their caches on it.
func (s *System) Version() uint64 { return s.graphVersion }

// NumCreated returns the number of Fresh calls so far (the creation-index
// space, shared across oracle-aligned runs).
func (s *System) NumCreated() int { return s.store.NumCreated() }

// CreatedVar returns the variable handed out for creation index i.
func (s *System) CreatedVar(i int) *Var { return s.store.CreatedVar(i) }

// Find returns the canonical representative of v (its cycle witness once v
// has been eliminated).
func (s *System) Find(v *Var) *Var { return find(v) }

// find returns id's representative.
func (s *System) find(id int32) int32 { return s.store.Find(id) }

// CanonicalVars returns the canonical (non-eliminated) variables in
// creation order.
func (s *System) CanonicalVars() []*Var { return s.store.CanonicalVars() }

// EdgeCounts tallies the distinct edges in the current graph: variable →
// variable edges (counted once regardless of orientation), source edges
// c(...) ⊆ X and sink edges X ⊆ c(...).
func (s *System) EdgeCounts() (varVar, source, sink int) {
	return s.store.EdgeCounts()
}

// TotalEdges returns the total number of distinct edges in the graph.
func (s *System) TotalEdges() int {
	a, b, c := s.EdgeCounts()
	return a + b + c
}

// VarAdjacency builds, over the canonical variables vars, the directed
// inclusion adjacency: an edge u → w meaning u ⊆ w. The returned index
// maps each canonical variable to its position in vars.
func (s *System) VarAdjacency(vars []*Var) (adj [][]int, index map[*Var]int) {
	return s.store.VarAdjacency(vars)
}
