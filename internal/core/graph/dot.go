package graph

import (
	"fmt"
	"io"
)

// errWriter forwards writes to an underlying writer and latches the first
// error it sees; subsequent writes are suppressed. It lets WriteDOT stream
// dozens of Fprint calls and still report the first failure instead of
// silently discarding mid-stream errors.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}

// WriteDOT renders the current constraint graph in Graphviz DOT format:
// canonical variables as ellipses, sources and sinks as boxes, successor
// edges solid and predecessor edges dashed (the paper's dotted arrows).
// Intended for debugging and for visualising small systems; the output is
// deterministic. The first write error encountered is returned.
func (st *Store) WriteDOT(w io.Writer) error {
	ew := &errWriter{w: w}
	fmt.Fprintln(ew, "digraph constraints {")
	fmt.Fprintln(ew, "  rankdir=LR;")
	fmt.Fprintln(ew, "  node [fontsize=10];")

	vars := st.CanonicalVars() // in creation order, which is id order

	nodeOf := map[TermID]string{}
	termNode := func(t TermID, sink bool) string {
		if node, ok := nodeOf[t]; ok {
			return node
		}
		node := fmt.Sprintf("t%d", len(nodeOf))
		nodeOf[t] = node
		shape := "box"
		if sink {
			shape = "box, style=dashed"
		}
		fmt.Fprintf(ew, "  %s [label=%q, shape=%s];\n", node, st.Term(t).String(), shape)
		return node
	}

	for _, v := range vars {
		fmt.Fprintf(ew, "  v%d [label=%q];\n", v.created, v.name)
	}
	for _, v := range vars {
		st.Clean(v.id)
		for _, t := range st.TermIDs(v.id, PredS) {
			fmt.Fprintf(ew, "  %s -> v%d [style=dashed];\n", termNode(t, false), v.created)
		}
		for _, p := range st.Vars(v.id, PredV) {
			fmt.Fprintf(ew, "  v%d -> v%d [style=dashed];\n", st.Handle(st.Find(p)).created, v.created)
		}
		for _, y := range st.Vars(v.id, SuccV) {
			fmt.Fprintf(ew, "  v%d -> v%d;\n", v.created, st.Handle(st.Find(y)).created)
		}
		for _, t := range st.TermIDs(v.id, SuccK) {
			fmt.Fprintf(ew, "  v%d -> %s;\n", v.created, termNode(t, true))
		}
	}
	fmt.Fprintln(ew, "}")
	return ew.err
}
