package graph

// Var is a set variable. Variables are created through a Store (normally
// via the solver façade's Fresh) and belong to the store that created
// them; they must not be shared across stores.
//
// The store owns the identity fields (name, creation index, total-order
// position, union-find forwarding pointer) and the four adjacency sets.
// Mark and Sol are slots the layers above hang per-variable state on: the
// cycle search and the least-solution walk both keep their visit state in
// Mark, and the least-solution engine keeps its cached node in Sol. The
// store itself never interprets either.
type Var struct {
	name  string
	id    int    // creation index within the owning store
	order uint64 // position in the random total order o(·)

	parent *Var // union-find forwarding pointer; nil when representative

	PredV VarSet  // variable predecessors (inductive form only)
	PredS TermSet // source predecessors c(...) ⊆ X
	SuccV VarSet  // variable successors
	SuccK TermSet // sink successors X ⊆ c(...)

	// Mark is an epoch mark. The online chain search and the
	// least-solution walk draw their epochs from one counter of the
	// solver, so neither reads a mark the other left as current.
	Mark uint64

	cleanEpoch uint64 // last merge epoch at which adjacency was compacted

	// Sol is the least-solution engine's per-variable cache slot.
	Sol SolSlot
}

// SolSlot is per-variable storage for a least-solution engine: an opaque
// solution node (engine-owned; nil means never computed), a dirty mark for
// the next pass's recomputation cone, and the variable's level in the
// predecessor DAG as of the last pass.
type SolSlot struct {
	Node    any
	Pending bool
	Level   int32
}

// NewVar constructs a detached variable. Most callers go through
// Store.Fresh, which also registers the variable; NewVar exists for tests
// that exercise the adjacency machinery in isolation.
func NewVar(name string, id int, order uint64) *Var {
	return &Var{name: name, id: id, order: order}
}

// Name returns the name the variable was created with.
func (v *Var) Name() string { return v.name }

// ID returns the variable's creation index in its owning store. Creation
// indices are dense and deterministic for a deterministic client, which is
// what allows the oracle to align two runs.
func (v *Var) ID() int { return v.id }

// Order returns the variable's position in the total order o(·).
func (v *Var) Order() uint64 { return v.order }

// Forwarded reports whether the variable has been merged away (it forwards
// to another variable; Find returns its representative).
func (v *Var) Forwarded() bool { return v.parent != nil }

// String returns the variable's name.
func (v *Var) String() string { return v.name }

// ReleaseStorage drops v's adjacency sets. The engine calls it for
// collapsed variables once no pending worklist entry can reference their
// term sets.
func (v *Var) ReleaseStorage() {
	v.PredV.release()
	v.PredS.release()
	v.SuccV.release()
	v.SuccK.release()
}

func (v *Var) isExpr() {}

// Find follows forwarding pointers to v's representative, compressing the
// path as it goes.
func Find(v *Var) *Var {
	if v.parent == nil {
		return v
	}
	root := v
	for root.parent != nil {
		root = root.parent
	}
	for v.parent != nil {
		next := v.parent
		v.parent = root
		v = next
	}
	return root
}

// Before reports whether a precedes b in the total order o(·). Random
// 64-bit orders collide with negligible probability, but creation index
// breaks ties so the order is always total.
func Before(a, b *Var) bool {
	if a.order != b.order {
		return a.order < b.order
	}
	return a.id < b.id
}
