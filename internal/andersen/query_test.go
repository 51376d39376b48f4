package andersen

import (
	"strings"
	"testing"

	"polce"
)

// queryProgram gives q two targets and fp a function target.
const queryProgram = `
int x, y, z;
int *p, *q, *r;
int *id(int *a) { return a; }
int *other(int *a) { return a; }
void f(void) {
	int *(*fp)(int *) = id;
	p = &x;
	q = &x;
	q = &y;
	r = &z;
	p = fp(p);
}
`

func queryResult(t *testing.T) *Result {
	t.Helper()
	return analyze(t, queryProgram, Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 3})
}

func TestMayAlias(t *testing.T) {
	r := queryResult(t)
	p := r.LocationByName("p")
	q := r.LocationByName("q")
	rr := r.LocationByName("r")
	if !r.MayAlias(p, q) {
		t.Error("p and q share x but MayAlias is false")
	}
	if r.MayAlias(p, rr) {
		t.Error("p and r are disjoint but MayAlias is true")
	}
	if !r.MayAlias(p, p) {
		t.Error("a location must alias itself")
	}
	if r.MayAlias(nil, p) || r.MayAlias(p, nil) {
		t.Error("nil locations must not alias")
	}
}

func TestPointedToBy(t *testing.T) {
	r := queryResult(t)
	x := r.LocationByName("x")
	holders := map[string]bool{}
	for _, l := range r.PointedToBy(x) {
		holders[l.Name] = true
	}
	if !holders["p"] || !holders["q"] {
		t.Errorf("PointedToBy(x) = %v, want p and q included", holders)
	}
	if holders["r"] {
		t.Errorf("r wrongly points to x")
	}
}

func TestCallTargets(t *testing.T) {
	r := queryResult(t)
	fp := r.LocationByName("f::fp")
	if fp == nil {
		t.Fatal("no fp location")
	}
	tgts := r.CallTargets(fp)
	if len(tgts) != 1 || tgts[0].Name != "id" {
		names := make([]string, len(tgts))
		for i, l := range tgts {
			names[i] = l.Name
		}
		t.Errorf("CallTargets(fp) = %v, want [id]", names)
	}
}

func TestPointsToStats(t *testing.T) {
	r := queryResult(t)
	st := r.Stats()
	if st.Locations == 0 || st.NonEmpty == 0 || st.Edges == 0 {
		t.Fatalf("degenerate stats %+v", st)
	}
	if st.MaxSet < 2 {
		t.Errorf("MaxSet = %d, want ≥2 (q points to x and y)", st.MaxSet)
	}
	if st.AvgSet <= 0 || st.AvgSet > float64(st.MaxSet) {
		t.Errorf("AvgSet = %v out of range", st.AvgSet)
	}
}

func TestPointsToDOT(t *testing.T) {
	r := queryResult(t)
	var sb strings.Builder
	if err := r.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph pointsto", `"p"`, `"x"`, "->", "shape=box"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	var sb2 strings.Builder
	if err := r.WriteDOT(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Error("points-to DOT not deterministic")
	}
}

func TestSolverGraphStats(t *testing.T) {
	r := queryResult(t)
	st := r.SolverGraphStats()
	if st.Vars == 0 || st.Density <= 0 {
		t.Errorf("solver graph stats degenerate: %+v", st)
	}
}
