package graph

// Var is a set variable: a small handle on one dense id of the store that
// created it. Variables are created through a Store (normally via the
// solver façade's Fresh) and must not be shared across stores.
//
// The handle carries only the variable's name, its creation index and
// its owning store. Everything the solver updates — the total-order
// position, the union-find forwarding parent and the four adjacency sets
// — lives in the store's per-id storage, which holds no pointers, and is
// read through the store. Handles are canonical: the store hands out one
// *Var per dense id, so handles compare by identity.
type Var struct {
	name    string
	st      *Store
	id      int32 // dense id: the index of the variable's storage in st
	created int32 // creation index within st
}

// Name returns the name the variable was created with.
func (v *Var) Name() string { return v.name }

// ID returns the variable's creation index in its owning store. Creation
// indices are dense and deterministic for a deterministic client, which is
// what allows the oracle to align two runs.
func (v *Var) ID() int { return int(v.created) }

// DenseID returns the variable's dense id: the index of its storage in the
// owning store. Ids are handed out in creation order to allocated
// variables only, so under the oracle, whose aliases allocate nothing,
// they can run behind creation indices.
func (v *Var) DenseID() int32 { return v.id }

// Order returns the variable's position in the total order o(·).
func (v *Var) Order() uint64 { return v.st.nodes[v.id].order }

// Forwarded reports whether the variable has been merged away (it forwards
// to another variable; Find returns its representative).
func (v *Var) Forwarded() bool { return v.st.Forwarded(v.id) }

// String returns the variable's name.
func (v *Var) String() string { return v.name }

func (v *Var) isExpr() {}

// Find returns the handle of v's representative, compressing the
// forwarding path as it goes.
func Find(v *Var) *Var { return v.st.Handle(v.st.Find(v.id)) }
