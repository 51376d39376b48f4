package benchmark

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected quartiles are Python's statistics.quantiles(xs, n=4), the
// computation the benchmark contract measures spread with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, m, q3  float64
		p90, p99   float64 // clamped at the largest value
		wantN      int
		wantMedian float64
	}{
		{xs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, q1: 2.75, m: 5.5, q3: 8.25, p90: 9.9, p99: 10, wantN: 10},
		{xs: []float64{3.5, 1.25, 9.0, 4.75}, q1: 1.8125, m: 4.125, q3: 7.9375, p90: 9, p99: 9, wantN: 4},
		{xs: []float64{10, 20}, q1: 7.5, m: 15, q3: 22.5, p90: 20, p99: 20, wantN: 2},
		{xs: []float64{5, 1, 4, 2, 3, 9, 7}, q1: 2, m: 4, q3: 7, p90: 9, p99: 9, wantN: 7},
		{xs: []float64{42}, q1: 42, m: 42, q3: 42, p90: 42, p99: 42, wantN: 1},
	}
	for _, c := range cases {
		q1, m, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		s := Summarize(c.xs)
		if s.N != c.wantN || !near(s.P50, c.m) || !near(s.Q1, c.q1) || !near(s.Q3, c.q3) {
			t.Errorf("Summarize(%v) = %+v; want n=%d quartiles %g, %g, %g", c.xs, s, c.wantN, c.q1, c.m, c.q3)
		}
		if !near(s.P90, c.p90) || !near(s.P99, c.p99) {
			t.Errorf("Summarize(%v) p90, p99 = %g, %g; want %g, %g", c.xs, s.P90, s.P99, c.p90, c.p99)
		}
	}
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero", s)
	}
}

// A P99 over 1000 samples has ten samples beyond it.
func TestPercentileOfLargeSample(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := Summarize(xs)
	if s.N != 1000 || !near(s.P99, 990.99) || !near(s.P90, 900.9) || !near(s.P50, 500.5) {
		t.Errorf("Summarize(1..1000) = %+v", s)
	}
	if got := Summarize(ms([]time.Duration{1500 * time.Microsecond})).P50; !near(got, 1.5) {
		t.Errorf("ms conversion: got %g, want 1.5", got)
	}
}
