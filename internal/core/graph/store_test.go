package graph

import "testing"

// TestResetVarRelists pins the live bookkeeping of ResetVar: NumLive is a
// counter that forwarding lowers and resetting a forwarded variable
// raises, resetting a live variable leaves it alone, re-forwarding and
// resetting the same variable never counts it twice, and CanonicalVars
// lists exactly the unforwarded variables in creation order.
func TestResetVarRelists(t *testing.T) {
	var st Store
	vs := make([]int32, 8)
	for i := range vs {
		vs[i] = st.Fresh("v", uint64(i)).DenseID()
	}
	for _, i := range []int{1, 2, 5, 6} {
		st.Forward(vs[i], vs[0])
	}
	if got := st.NumLive(); got != 4 {
		t.Fatalf("NumLive = %d after 4 of 8 forwarded, want 4", got)
	}
	if got := len(st.CanonicalVars()); got != 4 {
		t.Fatalf("CanonicalVars lists %d variables, want 4", got)
	}

	st.ResetVar(vs[6])
	st.ResetVar(vs[2])
	st.ResetVar(vs[4]) // a live variable: nothing to re-count
	if got := st.NumLive(); got != 6 {
		t.Fatalf("after resetting two forwarded variables: NumLive %d, want 6", got)
	}
	st.Forward(vs[6], vs[0]) // a replay collapses a reset variable again
	st.ResetVar(vs[6])       // and the next retraction resets it
	st.Forward(vs[3], vs[0]) // a live variable collapses
	st.ResetVar(vs[3])       // and is reset
	if got := st.NumLive(); got != 6 {
		t.Fatalf("after re-forward and reset: NumLive %d, want 6", got)
	}
	if err := st.Check(); err != nil {
		t.Fatal(err)
	}

	got := st.CanonicalVars()
	want := []int{0, 2, 3, 4, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("CanonicalVars = %v, want ids %v", got, want)
	}
	for i, v := range got {
		if v.ID() != want[i] {
			t.Fatalf("CanonicalVars ids = %v at %d, want %v", got, i, want)
		}
	}
}
