package benchmark

import (
	"path/filepath"
	"testing"
)

func pairsOf(a, b []float64) [][2]float64 {
	var p [][2]float64
	for i := range a {
		p = append(p, [2]float64{a[i], b[i]})
	}
	return p
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdicts(t *testing.T) {
	// Ten base runs with a 2% spread around 100.
	base := []float64{99, 100, 101, 98, 102, 100, 99, 101, 100, 100}
	noisy := []float64{80, 120, 95, 105, 70, 130, 100, 90, 110, 100}
	cases := []struct {
		name   string
		a, b   []float64
		lower  bool
		bound  float64
		want   string
		paired bool
	}{
		{"same code", base, base, true, 0.10, Unchanged, true},
		{"5% faster in every pair", base, scale(base, 0.95), true, 0.10, Better, true},
		{"15% slower", base, scale(base, 1.15), true, 0.10, Worse, true},
		{"8% slower stays within the bound", base, scale(base, 1.08), true, 0.10, Unchanged, true},
		{"higher is better: 5% up", base, scale(base, 1.05), false, 0.10, Better, true},
		{"higher is better: 15% down", base, scale(base, 0.85), false, 0.10, Worse, true},
		{"spread wider than the bound", noisy, scale(noisy, 0.97), true, 0.10, Unresolved, true},
		{"wide spread but every change run beats every base run", noisy, scale(noisy, 0.4), true, 0.10, Better, true},
		{"wins every pair but moves less than the base IQR", base, scale(base, 0.995), true, 0.10, Unchanged, true},
		{"wins fewer than 9 in 10 pairs", base, []float64{89.1, 90, 90.9, 88.2, 91.8, 90, 89.1, 90.9, 101, 101}, true, 0.10, Unchanged, true},
		{"no runs", nil, base, true, 0.10, Unresolved, false},
	}
	for _, c := range cases {
		var pairs [][2]float64
		if c.paired && len(c.a) == len(c.b) {
			pairs = pairsOf(c.a, c.b)
		}
		if got := Verdict(c.a, c.b, pairs, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// Compare pairs runs of one workload by seed and judges each end-to-end
// metric in its own row.
func TestComparePairsBySeed(t *testing.T) {
	run := func(w string, seed int64, op float64) Result {
		return Result{Workload: w, Seed: seed, Metrics: map[string]Metric{"op_ms_p50": {Value: op, Unit: "ms"}}}
	}
	var a, b []Result
	for seed := int64(1); seed <= 10; seed++ {
		// The change is 8% faster at every seed; b lists its runs in the
		// opposite seed order, so only pairing by seed matches them up.
		a = append(a, run("w", seed, 100+float64(seed)))
		b = append(b, run("w", 11-seed, 0.92*(100+float64(11-seed))))
	}
	bounds := []Bound{{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}}
	rows := Compare(bounds, a, b)
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	if r := rows[0]; r.Pairs != 10 || r.Wins != 10 || r.Verdict != Better {
		t.Errorf("row = %+v; want 10/10 paired wins and a better verdict", r)
	}

	// Round trip through a run-set file.
	path := filepath.Join(t.TempDir(), "set.ndjson")
	for i := range a {
		if err := AppendResult(path, &a[i]); err != nil {
			t.Fatal(err)
		}
	}
	back, err := ReadResults(path)
	if err != nil || len(back) != len(a) || back[3].Metrics["op_ms_p50"].Value != a[3].Metrics["op_ms_p50"].Value {
		t.Fatalf("ReadResults = %d runs, %v", len(back), err)
	}
}
