package polce

import (
	"context"
	"sort"
)

// A Snapshot is an immutable view of the least solutions at one graph
// version. Taking a snapshot locks the solver once; reading from it never
// locks, so any number of goroutines can query a snapshot while another
// keeps ingesting constraints into the live solver.
//
// Isolation comes from the solver's least-solution slices themselves: under
// inductive form each is an interned solution node's term view, never
// written after it is built, so the snapshot shares it with every later
// read; under standard form each read returns a fresh slice. Either way,
// nothing reachable from a Snapshot is written again, and the epoch guard
// means repeated Snapshot calls on an unchanged graph return the same
// object without rebuilding.
type Snapshot struct {
	version uint64
	form    Form
	stats   Stats
	errs    int
	ls      map[*Var][]*Term
	names   map[string]*Var

	// Introspection captured alongside the least solutions, so the debug
	// surfaces answer without ever touching the live solver: current graph
	// size and density, the sizes of the equivalence classes cycle
	// elimination has collapsed (descending, classes of ≥ 2 variables
	// only), and the least-solution cache state.
	graph   GraphStats
	classes []int
	lsCache LSCacheState
	storage StorageStats
}

// Snapshot captures the current least solutions. While the graph version
// is unchanged since the last capture, the previous snapshot is returned
// as-is; otherwise the solver computes least solutions (reusing the
// incremental engine's dirty-cone pass) and records one entry per created
// variable, resolved through union-find at capture time so snapshot reads
// never touch the live forwarding pointers.
func (s *Solver) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// SnapshotContext is Snapshot with cancellation: if ctx is already done
// when the solver's lock is acquired, no least-solution pass is started
// and ctx's error is returned. A capture that has begun runs to
// completion — the pass mutates only the solver's own cache, so there is
// no partially captured state to observe.
func (s *Solver) SnapshotContext(ctx context.Context) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.snapshotLocked(), nil
}

func (s *Solver) snapshotLocked() *Snapshot {
	if s.snap != nil && s.snap.version == s.sys.Version() {
		return s.snap
	}
	s.sys.ComputeLeastSolutions()
	n := s.sys.NumCreated()
	ls := make(map[*Var][]*Term, n)
	names := make(map[string]*Var, n)
	classSize := make(map[*Var]int, n)
	for i := 0; i < n; i++ {
		v := s.sys.CreatedVar(i)
		classSize[s.sys.Find(v)]++
		if _, ok := names[v.Name()]; !ok {
			names[v.Name()] = v
		}
		if _, ok := ls[v]; ok {
			continue // oracle-aliased index: handle already captured
		}
		ls[v] = s.sys.LeastSolution(v)
	}
	var classes []int
	for _, sz := range classSize {
		if sz >= 2 {
			classes = append(classes, sz)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(classes)))
	s.snap = &Snapshot{
		version: s.sys.Version(),
		form:    s.sys.Form(),
		stats:   s.sys.Stats(),
		errs:    s.sys.ErrorCount(),
		ls:      ls,
		names:   names,
		graph:   s.sys.CurrentGraphStats(),
		classes: classes,
		lsCache: s.sys.LSCacheState(),
		storage: s.sys.StorageStats(),
	}
	return s.snap
}

// LeastSolution returns the least solution of v as of the snapshot. It is
// safe to call from any goroutine without locking. The returned slice must
// not be modified. Variables created after the snapshot was taken report a
// nil solution.
func (sn *Snapshot) LeastSolution(v *Var) []*Term {
	return sn.ls[v]
}

// LeastSolutionContext is LeastSolution with a cancellation check, for
// callers that thread one context through every query of a request: if ctx
// is done the read is skipped and ctx's error returned. The read itself is
// a single lock-free map lookup.
func (sn *Snapshot) LeastSolutionContext(ctx context.Context, v *Var) ([]*Term, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sn.ls[v], nil
}

// VarByName returns the variable captured under the given name, or nil if
// no variable of that name existed at capture time. When several created
// variables share a name the first-created one wins; clients that need
// exact handles should keep the *Var from Fresh instead.
func (sn *Snapshot) VarByName(name string) *Var {
	return sn.names[name]
}

// Version returns the graph version the snapshot was taken at.
func (sn *Snapshot) Version() uint64 { return sn.version }

// Form returns the representation of the solver the snapshot came from.
func (sn *Snapshot) Form() Form { return sn.form }

// Stats returns the solver counters as of the snapshot.
func (sn *Snapshot) Stats() Stats { return sn.stats }

// ErrorCount returns the solver's total inconsistency count as of the
// snapshot.
func (sn *Snapshot) ErrorCount() int { return sn.errs }

// NumVars returns the number of variables captured in the snapshot.
func (sn *Snapshot) NumVars() int { return len(sn.ls) }

// Graph returns the graph's size and density as of the snapshot.
func (sn *Snapshot) Graph() GraphStats { return sn.graph }

// LSCache returns the least-solution cache state as of the snapshot.
func (sn *Snapshot) LSCache() LSCacheState { return sn.lsCache }

// Storage returns the drain-worklist shape as of the snapshot.
func (sn *Snapshot) Storage() StorageStats { return sn.storage }

// CollapsedClasses returns the sizes of the equivalence classes that cycle
// elimination has collapsed so far — one entry per class of two or more
// variables, in descending size order. The eliminated-variable count is
// the sum of (size − 1) over the entries. The returned slice is shared
// and must not be modified.
func (sn *Snapshot) CollapsedClasses() []int { return sn.classes }

// TopVar is one entry of Top: a variable and the size of its least
// solution at the snapshot.
type TopVar struct {
	Var   *Var
	Terms int
}

// Top returns the k variables with the largest least solutions, largest
// first, ties broken by name so the ranking is deterministic. Like every
// snapshot read it is lock-free and safe for any number of concurrent
// callers.
func (sn *Snapshot) Top(k int) []TopVar {
	if k <= 0 {
		return nil
	}
	all := make([]TopVar, 0, len(sn.ls))
	for v, terms := range sn.ls {
		all = append(all, TopVar{Var: v, Terms: len(terms)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Terms != all[j].Terms {
			return all[i].Terms > all[j].Terms
		}
		return all[i].Var.Name() < all[j].Var.Name()
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}
