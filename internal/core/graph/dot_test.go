package graph

import (
	"errors"
	"strings"
	"testing"
)

// collapsedStore builds a tiny store with one collapse applied: X, Y and Z
// where Z has been merged into X, a source a ⊆ X, the successor edge
// X → Y, a predecessor edge recorded against the dead Z, and a sink
// Y ⊆ end. The DOT renderer must route the dead variable through its
// witness and never mention it.
func collapsedStore() *Store {
	var st Store
	x := st.Fresh("X", 1)
	y := st.Fresh("Y", 2)
	z := st.Fresh("Z", 3)
	a := NewTerm(NewConstructor("a"))
	end := NewTerm(NewConstructor("end"))
	st.AddTerm(x.id, PredS, st.Intern(a))
	st.AddVar(x.id, SuccV, y.id)
	st.AddVar(y.id, PredV, z.id)
	st.AddTerm(y.id, SuccK, st.Intern(end))
	st.Forward(z.id, x.id)
	st.BumpMergeEpoch()
	return &st
}

// TestWriteDOTGolden pins the exact rendering of the collapsed graph —
// node declarations in id order, then per variable the dashed source and
// predecessor edges and the solid successor and sink edges.
func TestWriteDOTGolden(t *testing.T) {
	const want = `digraph constraints {
  rankdir=LR;
  node [fontsize=10];
  v0 [label="X"];
  v1 [label="Y"];
  t0 [label="a", shape=box];
  t0 -> v0 [style=dashed];
  v0 -> v1;
  v0 -> v1 [style=dashed];
  t1 [label="end", shape=box, style=dashed];
  v1 -> t1;
}
`
	var sb strings.Builder
	if err := collapsedStore().WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Errorf("DOT output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// failAfterWriter accepts n writes and then fails every subsequent one
// with its sentinel error.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	w.n--
	return len(p), nil
}

// TestWriteDOTPropagatesErrors fails the underlying writer at every write
// position in turn: WriteDOT must surface exactly the injected error no
// matter where in the stream it strikes, and succeed once the writer
// outlasts the stream.
func TestWriteDOTPropagatesErrors(t *testing.T) {
	st := collapsedStore()
	var count strings.Builder
	if err := st.WriteDOT(&count); err != nil {
		t.Fatal(err)
	}
	writes := strings.Count(count.String(), "\n") // one Fprint per line

	sentinel := errors.New("sink failed")
	for n := 0; n < writes; n++ {
		if err := st.WriteDOT(&failAfterWriter{n: n, err: sentinel}); !errors.Is(err, sentinel) {
			t.Fatalf("writer failing at write %d: got %v, want sentinel", n, err)
		}
	}
	if err := st.WriteDOT(&failAfterWriter{n: writes, err: sentinel}); err != nil {
		t.Fatalf("writer with exact capacity errored: %v", err)
	}
}

// TestErrWriterLatchesFirstError pins the latch: after one failure the
// wrapper reports the first error forever and stops touching the sink.
func TestErrWriterLatchesFirstError(t *testing.T) {
	first := errors.New("first")
	ew := &errWriter{w: &failAfterWriter{n: 1, err: first}}
	if _, err := ew.Write([]byte("ok")); err != nil {
		t.Fatalf("first write failed: %v", err)
	}
	if _, err := ew.Write([]byte("boom")); !errors.Is(err, first) {
		t.Fatalf("second write: %v", err)
	}
	if _, err := ew.Write([]byte("after")); !errors.Is(err, first) {
		t.Fatalf("latched error lost: %v", err)
	}
	if ew.err != first {
		t.Fatalf("latched %v, want first", ew.err)
	}
}
