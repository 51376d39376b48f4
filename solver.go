package polce

import (
	"context"
	"io"
	"sync"

	"polce/internal/core"
)

// Constraint is one pending inclusion L ⊆ R for AddBatch.
type Constraint struct {
	L, R Expr
}

// BatchID is the retraction handle returned by every mutating call. On a
// solver built with Options.Retractable it names the recorded batch and can
// later be passed to RetractBatch; on a non-retractable solver it is always
// zero and never usable. IDs are assigned in application order, are unique
// for the solver's lifetime, and are never reused after retraction.
type BatchID uint64

// Solver is a thread-safe façade over one constraint system. All methods
// are safe for concurrent use; each takes the solver's lock, so a method
// call is one atomic step of the underlying online solver. For bulk
// ingestion use AddBatch, which holds the lock across the whole batch; for
// concurrent reads use Snapshot, which is lock-free after capture.
type Solver struct {
	mu  sync.Mutex
	sys *core.System

	// snap is the last snapshot taken, reused (copy-on-write) while the
	// graph version is unchanged.
	snap *Snapshot

	// closed is set by Close; context-aware ingestion refuses with
	// ErrSolverClosed afterwards while reads keep working.
	closed bool
}

// New creates an empty constraint system with the given options.
func New(opt Options) *Solver {
	return &Solver{sys: core.NewSystem(opt)}
}

// NewInitialGraph creates a solver that resolves constraints to atomic
// edges but performs no closure and no cycle elimination (the paper's
// "initial graph").
func NewInitialGraph(opt Options) *Solver {
	return &Solver{sys: core.NewInitialGraph(opt)}
}

// BuildOracle derives a cycle oracle from a solved system; see
// core.BuildOracle.
func BuildOracle(s *Solver) *Oracle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return core.BuildOracle(s.sys)
}

// Fresh creates a new set variable.
func (s *Solver) Fresh(name string) *Var {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.Fresh(name)
}

// AddConstraint adds l ⊆ r and immediately restores closure. On a
// retractable solver the constraint is recorded as an implicit
// one-constraint batch whose id is returned; on a non-retractable solver
// the id is zero.
func (s *Solver) AddConstraint(l, r Expr) BatchID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := BatchID(s.sys.BeginBatch())
	s.sys.AddConstraint(l, r)
	s.sys.EndBatch()
	return id
}

// AddConstraintContext adds l ⊆ r unless ctx is already cancelled or the
// solver has been closed. A single constraint's closure drain is one
// atomic step and is never interrupted part-way, so the system is always
// consistent when this returns. The returned BatchID is the constraint's
// retraction handle (zero on a non-retractable solver or when nothing was
// added).
func (s *Solver) AddConstraintContext(ctx context.Context, l, r Expr) (BatchID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrSolverClosed
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	id := BatchID(s.sys.BeginBatch())
	s.sys.AddConstraint(l, r)
	s.sys.EndBatch()
	return id, nil
}

// AddBatch adds every constraint of the batch under one lock acquisition.
// The constraints are applied in order through the same online path as
// AddConstraint — closure and cycle elimination run at each one — so a
// batch is exactly a sequence of AddConstraint calls that no concurrent
// reader can interleave.
// The returned BatchID is the batch's retraction handle (zero on a
// non-retractable solver).
func (s *Solver) AddBatch(batch []Constraint) BatchID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := BatchID(s.sys.BeginBatch())
	for _, c := range batch {
		s.sys.AddConstraint(c.L, c.R)
	}
	s.sys.EndBatch()
	return id
}

// AddBatchContext is AddBatch with cancellation: between worklist drains —
// that is, between consecutive constraints of the batch — it checks ctx
// and stops early if the context is done, returning how many constraints
// were applied together with ctx's error. Each individual constraint is
// still applied atomically (its closure drain runs to completion), so an
// aborted batch leaves the solver fully consistent: the first n
// constraints are in, the rest are not, and a later AddBatch of the
// remainder yields exactly the same system as an uninterrupted run.
//
// If the solver has been closed, no constraint is applied and the error is
// ErrSolverClosed.
//
// The returned BatchID is the batch's retraction handle. An interrupted
// batch still gets a handle covering exactly the constraints that were
// applied, so a caller unwinding a cancelled ingest can RetractBatch the
// partial batch. The id is zero when the solver is non-retractable or when
// no constraint was applied.
func (s *Solver) AddBatchContext(ctx context.Context, batch []Constraint) (applied int, id BatchID, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0, ErrSolverClosed
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	id = BatchID(s.sys.BeginBatch())
	defer s.sys.EndBatch()
	for i, c := range batch {
		if err := ctx.Err(); err != nil {
			return i, id, err
		}
		s.sys.AddConstraint(c.L, c.R)
	}
	return len(batch), id, nil
}

// RetractBatch removes the named batches' constraints as if they had never
// been added, preserving every fact the surviving constraints still
// justify (a derivation justified two ways survives losing one: the
// surviving batches of the dirty cone are replayed). Unknown ids fail with ErrUnknownBatch and retract nothing;
// a solver built without Options.Retractable fails with ErrNotRetractable.
// The report describes the rolled-back dirty cone and the replayed
// survivors; see RetractReport.
func (s *Solver) RetractBatch(ids ...BatchID) (RetractReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.RetractBatches(batchIDs(ids))
}

// RetractBatchContext is RetractBatch with the façade's standard
// closed/cancelled preflight. A retraction that starts runs to completion
// — rollback and replay are one atomic step, never interrupted part-way —
// so ctx is only consulted before any work begins.
func (s *Solver) RetractBatchContext(ctx context.Context, ids ...BatchID) (RetractReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return RetractReport{}, ErrSolverClosed
	}
	if err := ctx.Err(); err != nil {
		return RetractReport{}, err
	}
	return s.sys.RetractBatches(batchIDs(ids))
}

func batchIDs(ids []BatchID) []uint64 {
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	return out
}

// Retractable reports whether the solver was built with
// Options.Retractable and so tracks batches for retraction.
func (s *Solver) Retractable() bool {
	// Fixed at construction; no lock needed.
	return s.sys.Retractable()
}

// BatchCount returns the number of live (added, not yet retracted)
// batches; zero on a non-retractable solver.
func (s *Solver) BatchCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.BatchCount()
}

// Close marks the solver closed: context-aware ingestion
// (AddConstraintContext, AddBatchContext) fails with ErrSolverClosed from
// then on, while queries and snapshots keep working on the final state.
// Close is idempotent and always returns nil; the error result exists so
// the solver satisfies io.Closer in teardown paths.
func (s *Solver) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// Closed reports whether Close has been called.
func (s *Solver) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// ComputeLeastSolutions materialises the least solution for every
// variable (a no-op under standard form or while the cache is hot).
func (s *Solver) ComputeLeastSolutions() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sys.ComputeLeastSolutions()
}

// LeastSolution returns the source terms in the least solution of v, in
// first-reached order. The returned slice must not be modified, and — as
// it may alias live solver storage — must be consumed before further
// constraints are added. Concurrent readers should use Snapshot instead.
func (s *Solver) LeastSolution(v *Var) []*Term {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.LeastSolution(v)
}

// Stats returns the solver's counters so far.
func (s *Solver) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.Stats()
}

// StorageStats reports the drain worklist's shape. The counters are O(1)
// reads, so this is cheap enough for metric scrapes.
func (s *Solver) StorageStats() StorageStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.StorageStats()
}

// Errors returns the retained inconsistency errors. Every returned error
// matches errors.Is(err, ErrInconsistent) and unwraps to an
// *InconsistentError via errors.As.
func (s *Solver) Errors() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.Errors()
}

// ErrorCount returns the total number of inconsistencies seen.
func (s *Solver) ErrorCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.ErrorCount()
}

// CollapseCycles runs an offline Tarjan pass and collapses every
// non-trivial strongly connected component.
func (s *Solver) CollapseCycles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.CollapseCycles()
}

// CycleClassStats reports how many variables belong to cyclic equivalence
// classes and the size of the largest class.
func (s *Solver) CycleClassStats() (inCycles, maxClass int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.CycleClassStats()
}

// TotalEdges returns the total number of distinct edges in the graph.
func (s *Solver) TotalEdges() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.TotalEdges()
}

// EdgeCounts tallies the distinct edges in the current graph.
func (s *Solver) EdgeCounts() (varVar, source, sink int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.EdgeCounts()
}

// CurrentGraphStats measures the graph as it stands.
func (s *Solver) CurrentGraphStats() GraphStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.CurrentGraphStats()
}

// WriteDOT renders the current constraint graph in Graphviz DOT format.
func (s *Solver) WriteDOT(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.WriteDOT(w)
}

// NumCreated returns the number of Fresh calls so far.
func (s *Solver) NumCreated() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.NumCreated()
}

// CreatedVar returns the variable handed out for creation index i.
func (s *Solver) CreatedVar(i int) *Var {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.CreatedVar(i)
}

// Find returns the canonical representative of v.
func (s *Solver) Find(v *Var) *Var {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.Find(v)
}

// CanonicalVars returns the canonical (non-eliminated) variables in
// creation order.
func (s *Solver) CanonicalVars() []*Var {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.CanonicalVars()
}

// VarAdjacency builds the directed inclusion adjacency over vars.
func (s *Solver) VarAdjacency(vars []*Var) (adj [][]int, index map[*Var]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.VarAdjacency(vars)
}

// Form returns the graph representation in use.
func (s *Solver) Form() Form {
	// The representation is fixed at construction; no lock needed.
	return s.sys.Form()
}

// Policy returns the cycle-elimination policy in use.
func (s *Solver) Policy() CyclePolicy {
	// The policy is fixed at construction; no lock needed.
	return s.sys.Policy()
}

// Version returns the least-solution epoch of the graph; it advances
// exactly when a mutation that can change some least solution is applied.
func (s *Solver) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.Version()
}
