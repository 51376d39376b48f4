package benchmark

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"polce"
	"polce/internal/andersen"
	"polce/internal/cgen"
)

// Every workload runs end to end at smoke size, untraced and traced, with
// its verification on, and prints the contract's result line carrying
// exactly the catalog's metrics.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range Workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := Main(context.Background(), []string{"-workload", w, "-seed", "3", "-seconds", "0.2", "-trace", trace, "-smoke"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result object: %v\n%s", w, trace, err, lines[len(lines)-1])
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Fatalf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w, trace, line.Correct, line.Attempted, line.Failed, stdout.String())
			}
			defs := EndToEnd
			if trace == "1" {
				defs = PerLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w, trace, d.Name)
				case m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%s: %s = %v %s", w, trace, d.Name, m.Value, m.Unit)
				case trace == "0" && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.Name, m.Value)
				}
			}
			if trace == "1" {
				if c := line.Metrics["trace.child_coverage"].Value; c < 0.9 {
					t.Errorf("%s: child spans cover %.3f of their parent span, want ≥ 0.9", w, c)
				}
			}
		}
	}
}

// A points-to result that disagrees with the oracle counts as a failure in
// every pass that produces it.
func TestMismatchCountsAsFailure(t *testing.T) {
	a, err := setupAndersen(params{seed: 1, smoke: true}, formIF)
	if err != nil {
		t.Fatal(err)
	}
	a.want[1] = "0000000000000000"
	ph, err := a.measure(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed < 2 || ph.attempted != 2 {
		t.Fatalf("attempted %d failed %d; want every pass of the two to count its mismatch", ph.attempted, ph.failed)
	}
}

// The golden file pins the corpus sources, and its SF-Plain fingerprints
// agree with an online solve in the other form and another variable order.
func TestGoldenPinsCorpus(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpora {
		for _, name := range c {
			g, ok := golden[name]
			if !ok || g.SourceFNV != fnv64(makeProgram(name, false).src) {
				t.Errorf("golden file does not pin %s's source; run polce-benchmark -update-golden", name)
			}
		}
	}
	prog := makeProgram("eqntott", false)
	file, err := cgen.MustParse(prog.name+".c", prog.src)
	if err != nil {
		t.Fatal(err)
	}
	res := andersen.Analyze(file, andersen.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 7})
	res.Sys.ComputeLeastSolutions()
	if fp, edges := pointsToFingerprint(res); fp != golden["eqntott"].PointsToFNV || edges != golden["eqntott"].PointsToEdges {
		t.Errorf("IF-Online eqntott: fingerprint %s (%d edges), golden SF-Plain %s (%d edges)",
			fp, edges, golden["eqntott"].PointsToFNV, golden["eqntott"].PointsToEdges)
	}
}
