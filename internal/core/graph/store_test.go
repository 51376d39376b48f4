package graph

import "testing"

// TestResetVarRelists pins the live-list bookkeeping of ResetVar: an
// un-forwarded variable still in the list stops counting as dead, one that
// compaction dropped is queued and merged back in creation order by the
// next walk, and re-forwarding and resetting a queued variable neither
// lists it twice nor miscounts it.
func TestResetVarRelists(t *testing.T) {
	var st Store
	vs := make([]*Var, 8)
	for i := range vs {
		vs[i] = st.Fresh("v", uint64(i))
	}
	for _, i := range []int{1, 2, 5, 6} {
		st.Forward(vs[i], vs[0])
	}
	if got := st.NumLive(); got != 4 {
		t.Fatalf("NumLive = %d after 4 of 8 forwarded, want 4", got)
	}
	st.CanonicalVars() // half the list is dead: compacts it to {0,3,4,7}
	if len(st.vars) != 4 || st.dead != 0 {
		t.Fatalf("compaction left %d listed, %d dead; want 4, 0", len(st.vars), st.dead)
	}

	st.ResetVar(vs[6])
	st.ResetVar(vs[2])
	if len(st.queued) != 2 || st.NumLive() != 6 {
		t.Fatalf("after resetting two dropped variables: %d queued, NumLive %d; want 2, 6", len(st.queued), st.NumLive())
	}
	st.Forward(vs[6], vs[0]) // a replay collapses a queued variable again
	st.ResetVar(vs[6])       // and the next retraction resets it
	st.Forward(vs[3], vs[0]) // a listed variable collapses
	st.ResetVar(vs[3])       // and is reset before compaction drops it
	if len(st.queued) != 2 || st.dead != 0 || st.NumLive() != 6 {
		t.Fatalf("after re-forward and reset: %d queued, %d dead, NumLive %d; want 2, 0, 6", len(st.queued), st.dead, st.NumLive())
	}

	got := st.CanonicalVars()
	want := []int{0, 2, 3, 4, 6, 7}
	if len(got) != len(want) || len(st.queued) != 0 {
		t.Fatalf("CanonicalVars = %v (%d still queued), want ids %v", got, len(st.queued), want)
	}
	for i, v := range got {
		if v.ID() != want[i] {
			t.Fatalf("CanonicalVars ids = %v at %d, want %v", got, i, want)
		}
	}
}
