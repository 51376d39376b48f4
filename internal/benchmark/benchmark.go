// Package benchmark is the repository's end-to-end benchmark: one command
// runs a named workload for a fixed time at a given seed, checks that the
// program's outputs are correct, and reports end-to-end metrics (untraced)
// or per-layer metrics (traced) by name with their units and sample counts.
//
// Every measurement is taken from outside the program, by timing calls into
// the public functions of each layer — cgen, andersen, scl, the polce
// solver façade, HTTP into internal/serve — and by reading counters the
// program already exports (Stats, StorageStats, the Options.Metrics sink,
// serve's Tracer and telemetry registry). The benchmark adds no tracing
// inside the program. README.md documents the workloads and every metric.
package benchmark

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"polce/internal/telemetry"
)

// An untimed run sets its workload up at least setupMinReps times and until
// setupMinTime has passed, at most setupMaxReps times; setup_s is the
// median, and the last set-up is the one measured. Workloads with a short
// set-up so take more samples of it.
const (
	setupMinReps = 3
	setupMaxReps = 40
	setupMinTime = 2 * time.Second
)

// Config is one benchmark invocation.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is how long the run measures. A traced run splits it: the
	// first half untraced, the second traced, so the gap between the two
	// is the tracing overhead.
	Seconds float64
	Trace   bool
	// TraceOut, when set on a traced run, receives the joined span trees
	// (the benchmark's spans and the serve layer's) as NDJSON.
	TraceOut string
	// Smoke shrinks every workload to a size that runs in well under a
	// second, for the package tests.
	Smoke bool
}

// Workloads lists the workload names in BENCHMARK.json order.
var Workloads = []string{"andersen-if", "andersen-sf", "retract-churn", "serve-mixed"}

// params is what a workload's set-up receives.
type params struct {
	seed   int64
	smoke  bool
	traced bool
	rec    *spanRecorder // nil when untraced
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// measure runs the timed loop for d.
	measure(ctx context.Context, d time.Duration) (*phase, error)
	// verify checks the state the run ended in against the workload's
	// oracle and returns one line per mismatch. It runs after measure,
	// outside every timed region.
	verify(ctx context.Context) ([]string, error)
	// close releases what set-up acquired: servers, files, goroutines.
	close() error
}

func setupWorkload(ctx context.Context, name string, p params) (instance, error) {
	switch name {
	case "andersen-if":
		return setupAndersen(p, formIF)
	case "andersen-sf":
		return setupAndersen(p, formSF)
	case "retract-churn":
		return setupChurn(p)
	case "serve-mixed":
		return setupServe(ctx, p)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Workloads)
}

// phase is what one measure call observed.
type phase struct {
	// ops holds one latency per op; kinds splits them by type ("write",
	// "delete", "read") where a workload has types.
	ops   []time.Duration
	kinds map[string][]time.Duration
	// lags are how late an open loop sent each request; sloMisses counts
	// requests not answered 2xx within the SLO of their due time.
	lags      []time.Duration
	sloMisses int
	// attempted counts ops; failed counts failed ops plus failed per-op
	// checks.
	attempted, failed int64
	// layer holds the workload's per-layer metrics (traced phases only).
	layer map[string]float64
	// served are the serve layer's own spans, time-aligned with the
	// benchmark's recorder.
	served []telemetry.TraceRecord
	notes  []string

	// Filled in by the runner around measure.
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
	pauseNs    uint64
	liveHeap   uint64
	// liveHeaps, when a workload fills it, holds live-heap samples taken
	// during the loop; the run reports their median instead of liveHeap.
	liveHeaps []float64
}

func (ph *phase) kind(name string, d time.Duration) {
	if ph.kinds == nil {
		ph.kinds = map[string][]time.Duration{}
	}
	ph.kinds[name] = append(ph.kinds[name], d)
}

func (ph *phase) setLayer(name string, v float64) {
	if ph.layer == nil {
		ph.layer = map[string]float64{}
	}
	ph.layer[name] = v
}

// measurePhase runs one timed loop and brackets it with the runtime's
// allocation and GC counters; the live heap is read after a full GC while
// the instance (and so its solved state) is still reachable.
func measurePhase(ctx context.Context, inst instance, d time.Duration) (*phase, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ph, err := inst.measure(ctx, d)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	ph.totalAlloc = after.TotalAlloc - before.TotalAlloc
	ph.mallocs = after.Mallocs - before.Mallocs
	ph.numGC = after.NumGC - before.NumGC
	ph.pauseNs = after.PauseTotalNs - before.PauseTotalNs
	runtime.GC()
	runtime.ReadMemStats(&after)
	ph.liveHeap = after.HeapAlloc
	runtime.KeepAlive(inst)
	return ph, nil
}

// Metric is one reported value with its unit and the number of samples
// behind it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// Result is one run. It is written whole to -out files (one JSON object per
// line); the last line of standard output carries only the fields the
// benchmark contract names (see Line).
type Result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Metrics    map[string]Metric  `json:"metrics"`
	Samples    map[string]Summary `json:"samples"`
	SelfMs     map[string]float64 `json:"self_ms,omitempty"`
	Mismatches []string           `json:"mismatches,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
}

// Run executes one benchmark run.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive, got %g", cfg.Seconds)
	}
	res := &Result{
		Workload:   cfg.Workload,
		Seed:       cfg.Seed,
		Seconds:    cfg.Seconds,
		Trace:      cfg.Trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Metrics:    map[string]Metric{},
		Samples:    map[string]Summary{},
	}
	window := time.Duration(cfg.Seconds * float64(time.Second))
	p := params{seed: cfg.Seed, smoke: cfg.Smoke}
	if !cfg.Trace {
		var setups []float64
		var inst instance
		var spent float64
		for len(setups) < setupMinReps || (spent < setupMinTime.Seconds() && len(setups) < setupMaxReps) {
			if inst != nil {
				if err := inst.close(); err != nil {
					return nil, err
				}
			}
			start := time.Now()
			var err error
			if inst, err = setupWorkload(ctx, cfg.Workload, p); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(start).Seconds())
			spent += setups[len(setups)-1]
		}
		ph, err := runPhase(ctx, inst, window, res)
		if err != nil {
			return nil, err
		}
		res.Samples["setup_s"] = Summarize(setups)
		res.endToEnd(ph, setups)
	} else {
		half := window / 2
		inst, err := setupWorkload(ctx, cfg.Workload, p)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		plain, err := runPhase(ctx, inst, half, res)
		if err != nil {
			return nil, err
		}
		p.traced, p.rec = true, newSpanRecorder()
		if inst, err = setupWorkload(ctx, cfg.Workload, p); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		traced, err := runPhase(ctx, inst, half, res)
		if err != nil {
			return nil, err
		}
		recs := joinTraces(p.rec.records(), traced.served)
		an := analyzeTrace(recs)
		res.SelfMs = an.SelfMs
		res.perLayer(plain, traced, an)
		if cfg.TraceOut != "" {
			if err := writeNDJSON(cfg.TraceOut, recs); err != nil {
				return nil, fmt.Errorf("writing trace: %w", err)
			}
		}
	}
	res.Correct = res.Failed == 0 && len(res.Mismatches) == 0
	return res, nil
}

// runPhase measures inst for d, verifies and closes it, and folds its
// counts into res.
func runPhase(ctx context.Context, inst instance, d time.Duration, res *Result) (*phase, error) {
	ph, err := measurePhase(ctx, inst, d)
	if err != nil {
		inst.close()
		return nil, fmt.Errorf("measure: %w", err)
	}
	mismatches, err := inst.verify(ctx)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	res.Attempted += ph.attempted
	res.Failed += ph.failed + int64(len(mismatches))
	res.Mismatches = append(res.Mismatches, mismatches...)
	res.Notes = append(res.Notes, ph.notes...)
	return ph, nil
}

const mib = 1 << 20

func (res *Result) set(name string, v float64, n int) {
	res.Metrics[name] = Metric{Value: finite(v), Unit: unitOf(name), N: n}
}

func unitOf(name string) string {
	for _, defs := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not in the catalog")
}

// endToEnd fills the end-to-end metrics from an untraced phase.
func (res *Result) endToEnd(ph *phase, setups []float64) {
	ops := Summarize(ms(ph.ops))
	res.Samples["op_ms"] = ops
	res.addKindSamples(ph)
	n := len(ph.ops)
	res.set("setup_s", Quantile(setups, 0.5), len(setups))
	res.set("op_ms_p50", ops.P50, n)
	res.set("alloc_mb", ratio(float64(ph.totalAlloc), float64(n))/mib, n)
	if len(ph.liveHeaps) > 0 {
		res.set("live_heap_mb", Quantile(ph.liveHeaps, 0.5)/mib, len(ph.liveHeaps))
	} else {
		res.set("live_heap_mb", float64(ph.liveHeap)/mib, 1)
	}
}

func (res *Result) addKindSamples(ph *phase) {
	for k, ds := range ph.kinds {
		res.Samples[k+"_ms"] = Summarize(ms(ds))
	}
	if len(ph.lags) > 0 {
		res.Samples["lag_ms"] = Summarize(ms(ph.lags))
	}
}

// perLayer fills the per-layer metrics from a traced phase, with the
// untraced phase as the base of the tracing overhead.
func (res *Result) perLayer(plain, traced *phase, an traceAnalysis) {
	for _, d := range PerLayer {
		res.set(d.Name, 0, 0)
	}
	for name, v := range traced.layer {
		res.set(name, v, len(traced.ops))
	}
	n := len(traced.ops)
	perOp := func(v float64) float64 { return ratio(v, float64(n)) }
	res.set("runtime.gc_cycles", perOp(float64(traced.numGC)), n)
	res.set("runtime.gc_pause_ms", perOp(float64(traced.pauseNs)/1e6), n)
	res.set("runtime.mallocs", perOp(float64(traced.mallocs)), n)

	for _, k := range []string{"write", "delete", "read"} {
		if ds := traced.kinds[k]; len(ds) > 0 {
			s := Summarize(ms(ds))
			res.set("loadgen."+k+"_ms_p50", s.P50, s.N)
			res.set("loadgen."+k+"_ms_p99", s.P99, s.N)
		}
	}
	if len(traced.lags) > 0 {
		res.set("loadgen.lag_ms_p99", Summarize(ms(traced.lags)).P99, len(traced.lags))
		res.set("loadgen.slo_miss_frac", ratio(float64(traced.sloMisses), float64(traced.attempted)), int(traced.attempted))
	}
	res.set("loadgen.error_frac", ratio(float64(traced.failed), float64(traced.attempted)), int(traced.attempted))

	plainOps, tracedOps := Summarize(ms(plain.ops)), Summarize(ms(traced.ops))
	res.Samples["op_ms"] = plainOps
	res.Samples["traced_op_ms"] = tracedOps
	res.addKindSamples(traced)
	res.set("trace.overhead_frac", ratio(tracedOps.P50, plainOps.P50)-1, tracedOps.N)
	res.Samples["child_coverage"] = an.Coverage
	res.set("trace.child_coverage", an.Coverage.P50, an.Coverage.N)
}

// Line is the contract's result line: exactly these four keys, each metric
// with its value and unit.
func (res *Result) Line() ([]byte, error) {
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]lineMetric{}
	for name, m := range res.Metrics {
		metrics[name] = lineMetric{m.Value, m.Unit}
	}
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{res.Correct, attempted, res.Failed, metrics})
}

// WriteReport prints the run for a human: every metric by name with its
// unit and sample count, the op-type breakdown, verification and, on a
// traced run, self time per layer.
func (res *Result) WriteReport(w io.Writer) {
	mode := "end-to-end (untraced)"
	defs := EndToEnd
	if res.Trace {
		mode, defs = "per-layer (traced)", PerLayer
	}
	fmt.Fprintf(w, "polce-benchmark: workload %s, seed %d, %gs, GOMAXPROCS %d, %s\n",
		res.Workload, res.Seed, res.Seconds, res.GOMAXPROCS, mode)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-30s %14.4f %-6s n=%d\n", d.Name, m.Value, m.Unit, m.N)
	}
	names := make([]string, 0, len(res.Samples))
	for k := range res.Samples {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  samples:\n")
	for _, k := range names {
		s := res.Samples[k]
		fmt.Fprintf(w, "    %-16s n=%-6d p50 %.4g [q1 %.4g, q3 %.4g] p90 %.4g p99 %.4g\n", k, s.N, s.P50, s.Q1, s.Q3, s.P90, s.P99)
	}
	if len(res.SelfMs) > 0 {
		layers := make([]string, 0, len(res.SelfMs))
		var total float64
		for l, v := range res.SelfMs {
			layers = append(layers, l)
			total += v
		}
		sort.Slice(layers, func(i, j int) bool { return res.SelfMs[layers[i]] > res.SelfMs[layers[j]] })
		fmt.Fprintf(w, "  self time by layer (traced half):\n")
		for _, l := range layers {
			fmt.Fprintf(w, "    %-10s %12.1f ms %5.1f%%\n", l, res.SelfMs[l], 100*ratio(res.SelfMs[l], total))
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  verification: %d op(s) attempted, %d failed, %d mismatch(es)\n", res.Attempted, res.Failed, len(res.Mismatches))
	for _, m := range res.Mismatches {
		fmt.Fprintf(w, "    MISMATCH %s\n", m)
	}
}

// derive mixes a seed with indices into an independent 63-bit seed
// (splitmix64), so every random choice a workload makes follows from the
// run's seed alone.
func derive(seed int64, parts ...uint64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x = mix64(x ^ mix64(p+0x632be59bd9b4e019))
	}
	return int64(mix64(x) >> 1)
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
