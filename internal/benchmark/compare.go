package benchmark

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Bound is one end-to-end metric's entry in BENCHMARK.json: the share of
// the base median by which it may get worse before a change counts as a
// regression.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LoadBounds reads the end-to-end metric bounds from a BENCHMARK.json.
func LoadBounds(path string) ([]Bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []Bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// ReadResults reads a set of runs: one Result JSON object per line, as -out
// appends them.
func ReadResults(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// AppendResult appends res to the run-set file at path.
func AppendResult(path string, res *Result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Verdicts of a comparison row.
const (
	Better     = "better"
	Worse      = "worse"
	Unchanged  = "unchanged"
	Unresolved = "unresolved"
)

// Verdict judges change runs b against base runs a of one metric. pairs
// holds (base, change) values of runs made at the same seed. The rules:
//   - unresolved: either side's spread (interquartile range over median)
//     exceeds bound — unless every change run beats every base run, which
//     is better;
//   - worse: the change's median is worse than the base's by more than bound;
//   - better: the change wins at least 9 in 10 pairs and the medians differ
//     by more than the base's interquartile range;
//   - unchanged: otherwise.
func Verdict(a, b []float64, pairs [][2]float64, lowerIsBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return Unresolved
	}
	q1a, ma, q3a := Quartiles(a)
	q1b, mb, q3b := Quartiles(b)
	gain := ratio(mb-ma, math.Abs(ma)) // relative change of the median
	if lowerIsBetter {
		gain = -gain
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if !beats(lowerIsBetter, x, y) {
				allBetter = false
			}
		}
	}
	spread := math.Max(ratio(q3a-q1a, math.Abs(ma)), ratio(q3b-q1b, math.Abs(mb)))
	switch {
	case spread > bound && allBetter:
		return Better
	case spread > bound:
		return Unresolved
	case gain < -bound:
		return Worse
	}
	if len(pairs) > 0 && 10*wins(pairs, lowerIsBetter) >= 9*len(pairs) && math.Abs(mb-ma) > q3a-q1a && gain > 0 {
		return Better
	}
	return Unchanged
}

// beats reports whether change is better than base.
func beats(lowerIsBetter bool, base, change float64) bool {
	if lowerIsBetter {
		return change < base
	}
	return change > base
}

// wins counts the (base, change) pairs the change wins; ties count for
// neither side.
func wins(pairs [][2]float64, lowerIsBetter bool) int {
	n := 0
	for _, p := range pairs {
		if beats(lowerIsBetter, p[0], p[1]) {
			n++
		}
	}
	return n
}

// Row is one workload × metric line of a comparison.
type Row struct {
	Workload, Metric string
	A, B             Summary
	Wins, Pairs      int
	Verdict          string
}

// Compare pairs the runs of two sets by workload and seed and judges every
// end-to-end metric with bounds from BENCHMARK.json.
func Compare(bounds []Bound, a, b []Result) []Row {
	workloads := map[string]bool{}
	for _, r := range append(append([]Result(nil), a...), b...) {
		if !r.Trace {
			workloads[r.Workload] = true
		}
	}
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	var rows []Row
	for _, w := range names {
		for _, bd := range bounds {
			va, sa := valuesBySeed(a, w, bd.Name)
			vb, sb := valuesBySeed(b, w, bd.Name)
			var pairs [][2]float64
			for seed, xs := range sa {
				ys := sb[seed]
				for i := 0; i < len(xs) && i < len(ys); i++ {
					pairs = append(pairs, [2]float64{xs[i], ys[i]})
				}
			}
			lower := bd.Better != "higher"
			rows = append(rows, Row{
				Workload: w, Metric: bd.Name, A: Summarize(va), B: Summarize(vb),
				Wins: wins(pairs, lower), Pairs: len(pairs),
				Verdict: Verdict(va, vb, pairs, lower, bd.Bound),
			})
		}
	}
	return rows
}

func valuesBySeed(runs []Result, workload, metric string) ([]float64, map[int64][]float64) {
	var all []float64
	bySeed := map[int64][]float64{}
	for _, r := range runs {
		m, ok := r.Metrics[metric]
		if r.Trace || r.Workload != workload || !ok {
			continue
		}
		all = append(all, m.Value)
		bySeed[r.Seed] = append(bySeed[r.Seed], m.Value)
	}
	return all, bySeed
}

// WriteComparison prints one row per workload and metric: each side's
// median with its quartiles and run count, the ratio of the medians with
// its base, the paired wins and the verdict.
func WriteComparison(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-14s %-13s %-34s %-34s %-22s %-6s %s\n", "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "B/A (base A)", "wins", "verdict")
	for _, r := range rows {
		side := func(s Summary) string { return fmt.Sprintf("%.4g [%.4g, %.4g] %d", s.P50, s.Q1, s.Q3, s.N) }
		fmt.Fprintf(w, "%-14s %-13s %-34s %-34s %-22s %-6s %s\n", r.Workload, r.Metric, side(r.A), side(r.B),
			fmt.Sprintf("%.3f (%.4g)", ratio(r.B.P50, r.A.P50), r.A.P50), fmt.Sprintf("%d/%d", r.Wins, r.Pairs), r.Verdict)
	}
}
