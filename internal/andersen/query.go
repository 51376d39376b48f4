package andersen

import (
	"fmt"
	"io"
	"sort"

	"polce"
)

// This file is the client-facing query layer over an analysis result: the
// alias questions downstream tools ask of a points-to analysis, and a
// Graphviz export of the points-to graph.

// MayAlias reports whether two pointers may alias under the standard
// location-level definition: their points-to sets intersect (or they are
// the same location).
func (r *Result) MayAlias(a, b *Location) bool {
	if a == nil || b == nil {
		return false
	}
	if a == b {
		return true
	}
	set := map[*Location]bool{}
	for _, t := range r.PointsTo(a) {
		set[t] = true
	}
	for _, t := range r.PointsTo(b) {
		if set[t] {
			return true
		}
	}
	return false
}

// PointedToBy returns the locations whose points-to sets include target —
// the inverse points-to relation, useful for "who can write here?"
// queries.
func (r *Result) PointedToBy(target *Location) []*Location {
	var out []*Location
	for _, l := range r.Locations {
		for _, t := range r.PointsTo(l) {
			if t == target {
				out = append(out, l)
				break
			}
		}
	}
	return out
}

// CallTargets resolves the functions a location may invoke: the function
// locations in its points-to set. For a function-pointer variable this is
// the call graph edge set at its call sites.
func (r *Result) CallTargets(l *Location) []*Location {
	var out []*Location
	for _, t := range r.PointsTo(l) {
		if t.Func != nil {
			out = append(out, t)
		}
	}
	return out
}

// PointsToStats summarises the points-to graph the way the literature
// reports precision: total edges, average and maximum set size over
// locations with non-empty sets.
type PointsToStats struct {
	Locations int     `json:"locations"`
	NonEmpty  int     `json:"nonEmpty"`
	Edges     int     `json:"edges"`
	MaxSet    int     `json:"maxSet"`
	AvgSet    float64 `json:"avgSet"`
}

// Stats computes the points-to graph summary.
func (r *Result) Stats() PointsToStats {
	st := PointsToStats{Locations: len(r.Locations)}
	for _, l := range r.Locations {
		n := r.numPointsTo(l)
		if n == 0 {
			continue
		}
		st.NonEmpty++
		st.Edges += n
		if n > st.MaxSet {
			st.MaxSet = n
		}
	}
	if st.NonEmpty > 0 {
		st.AvgSet = float64(st.Edges) / float64(st.NonEmpty)
	}
	return st
}

// WriteDOT renders the points-to graph (Andersen's output, Figure 5 of
// the paper) in Graphviz DOT format: one node per abstract location, an
// edge x → y when x may point to y. Output is deterministic.
func (r *Result) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph pointsto {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  node [fontsize=10, shape=ellipse];")
	id := map[*Location]int{}
	for i, l := range r.Locations {
		id[l] = i
	}
	for i, l := range r.Locations {
		shape := ""
		if l.Func != nil {
			shape = ", shape=box"
		}
		fmt.Fprintf(w, "  n%d [label=%q%s];\n", i, l.Name, shape)
	}
	for _, l := range r.Locations {
		tgts := r.PointsTo(l)
		sort.Slice(tgts, func(a, b int) bool { return id[tgts[a]] < id[tgts[b]] })
		for _, t := range tgts {
			fmt.Fprintf(w, "  n%d -> n%d;\n", id[l], id[t])
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// SolverGraphStats exposes the underlying constraint graph's density, the
// quantity Section 5's model is parameterised by.
func (r *Result) SolverGraphStats() polce.GraphStats {
	return r.Sys.CurrentGraphStats()
}
