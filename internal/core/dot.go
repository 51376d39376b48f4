package core

import "io"

// WriteDOT renders the current constraint graph in Graphviz DOT format;
// see graph.Store.WriteDOT. The first write error encountered is returned.
func (s *System) WriteDOT(w io.Writer) error { return s.store.WriteDOT(w) }

// GraphStats summarises the current graph's size and density — the
// quantities the analytical model of Section 5 is parameterised by.
type GraphStats struct {
	// Vars is the number of canonical (live) variables.
	Vars int
	// VarVarEdges, SourceEdges and SinkEdges partition the edges.
	VarVarEdges, SourceEdges, SinkEdges int
	// Density is total edges divided by (Vars + constructed endpoints):
	// the model's p·n, i.e. k such that p = k/n. Closed constraint graphs
	// sit near k ≈ 2, where Theorem 5.2 bounds chain searches at ≈2.2
	// visited nodes.
	Density float64
}

// CurrentGraphStats measures the graph as it stands.
func (s *System) CurrentGraphStats() GraphStats {
	vv, src, snk := s.EdgeCounts()
	st := GraphStats{
		Vars:        s.store.NumLive(),
		VarVarEdges: vv, SourceEdges: src, SinkEdges: snk,
	}
	if st.Vars > 0 {
		st.Density = float64(vv+src+snk) / float64(st.Vars)
	}
	return st
}
