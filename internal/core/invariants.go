package core

import (
	"fmt"

	"polce/internal/core/graph"
)

// CheckInvariants verifies the storage invariants the engine relies on
// and returns the first violation, or nil:
//
//   - forwarding chains are acyclic and end at unforwarded variables, and
//     NumLive counts exactly the unforwarded variables;
//   - every set reference names one non-empty set of its own, and every
//     free set slot is cleared;
//   - no adjacency set lists an entry twice, and every membership index
//     agrees with its list;
//   - under inductive form every stored variable edge points down-order:
//     find(x) precedes y for x ∈ PredV(y), and find(w) precedes x for
//     w ∈ SuccV(x) (an entry that now forwards to its own holder is a
//     stale self-edge the next Clean drops);
//   - the retraction footprint index lists exactly the live batches under
//     each variable of their footprints;
//   - no drain is in flight: the worklist, its expression side table, the
//     fan stack and the deferred releases are empty.
//
// It is meant for tests and debugging, between top-level calls; it costs
// O(variables + edges) and changes no observable state (it compresses
// forwarding paths as Find does, and compacts nothing).
func (s *System) CheckInvariants() error {
	if err := s.store.Check(); err != nil {
		return err
	}
	if n, e, m, d := len(s.work), len(s.exprs), len(s.fan), len(s.deferredFree); n+e+m+d != 0 {
		return fmt.Errorf("drain in flight: %d worklist entries, %d side-table expressions, %d fan targets, %d deferred releases", n, e, m, d)
	}
	if st := &s.store; s.opt.Form == IF {
		for y := range int32(st.NumIDs()) {
			if st.Forwarded(y) {
				continue
			}
			for _, x := range st.Vars(y, graph.PredV) {
				if x := st.Find(x); x != y && !st.Before(x, y) {
					return fmt.Errorf("predecessor edge %s ⋯→ %s points up-order", st.Handle(x), st.Handle(y))
				}
			}
			for _, w := range st.Vars(y, graph.SuccV) {
				if w := st.Find(w); w != y && !st.Before(w, y) {
					return fmt.Errorf("successor edge %s → %s points up-order", st.Handle(y), st.Handle(w))
				}
			}
		}
	}
	if s.retract != nil {
		return s.retract.check()
	}
	return nil
}

// check verifies the footprint index against the live batches: each live
// batch is listed once under every variable of its footprint, its
// footprint lists each variable once, and the index lists nothing else.
func (r *retractState) check() error {
	type entry struct {
		v int32
		b *batchRecord
	}
	indexed := make(map[entry]bool)
	for v, bs := range r.footprint {
		for _, b := range bs {
			if r.batches[b.id] != b {
				return fmt.Errorf("footprint of variable %d lists batch %d, which is not live", v, b.id)
			}
			if indexed[entry{v, b}] {
				return fmt.Errorf("footprint of variable %d lists batch %d twice", v, b.id)
			}
			indexed[entry{v, b}] = true
		}
	}
	for _, b := range r.batches {
		for _, v := range b.touched {
			if !indexed[entry{v, b}] {
				return fmt.Errorf("batch %d touched variable %d but is not indexed under it once", b.id, v)
			}
			delete(indexed, entry{v, b})
		}
	}
	for e := range indexed {
		return fmt.Errorf("footprint of variable %d lists batch %d, which never touched it", e.v, e.b.id)
	}
	return nil
}
