package benchmark

import (
	"math"
	"sort"
	"time"
)

// Quantile returns the q-quantile (0 < q < 1) of xs: the sample is sorted
// and the quantile sits at rank q·(n+1), interpolated between its
// neighbours and clamped to the smallest and largest value, so a tail
// percentile of a small sample never reads past the largest latency seen.
// It returns 0 for an empty sample. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	pos := q * float64(n+1)
	switch {
	case n == 1 || pos <= 1:
		return s[0]
	case pos >= float64(n):
		return s[n-1]
	}
	i := int(pos) // 1-based rank of the lower neighbour
	frac := pos - float64(i)
	return s[i-1] + frac*(s[i]-s[i-1])
}

// Quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them — the
// "exclusive" method, which extrapolates past the extremes of a very small
// sample — so spreads reported here match the benchmark contract's.
func Quartiles(xs []float64) (q1, median, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quartilesSorted(s)
}

func quartilesSorted(s []float64) (q1, median, q3 float64) {
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// Summary describes one sample: its size, its quartiles (as Quartiles
// computes them) and its 90th and 99th percentiles (as Quantile does). A
// percentile is only meaningful when at least ten samples lie beyond it
// (n ≥ 100 for P99); the report states n so the reader can tell.
type Summary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	Q1  float64 `json:"q1"`
	Q3  float64 `json:"q3"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// Summarize computes the Summary of xs.
func Summarize(xs []float64) Summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return Summary{}
	}
	q1, med, q3 := quartilesSorted(s)
	return Summary{
		N:   len(s),
		P50: med,
		Q1:  q1,
		Q3:  q3,
		P90: quantileSorted(s, 0.90),
		P99: quantileSorted(s, 0.99),
	}
}

// ms converts durations to float milliseconds, the unit samples are kept in.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite replaces NaN and ±Inf by 0 so every reported value encodes as a
// JSON number.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
