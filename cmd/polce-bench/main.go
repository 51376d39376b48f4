// Command polce-bench regenerates the tables and figures of the paper's
// evaluation (Section 4) and the analytical-model results (Section 5).
//
// Usage:
//
//	polce-bench -all                 # every table, figure and theorem
//	polce-bench -table 2            # one table (1-4)
//	polce-bench -figure 9           # one figure (7-11)
//	polce-bench -model thm51        # Theorem 5.1 (also: thm52)
//	polce-bench -max-ast 20000      # bound the suite (Plain runs are superlinear)
//	polce-bench -bench li           # a single benchmark
//	polce-bench -ablation -figure 11  # include the SF increasing-chain ablation
//	polce-bench -metrics -bench li    # phase timings + search-depth p50/p90/max
//	polce-bench -parallel -max-ast 3000  # the deterministic grid on a worker pool
//	polce-bench -ls-verify -ls-workers 4  # parallel least-solution pass vs sequential
//	polce-bench -wal-verify /var/lib/polce/wal  # replay a constraint log, check it against its manifest
//
// The benchmark programs are synthetic stand-ins generated at the paper's
// Table 1 scales; see DESIGN.md for the substitution argument. Timing
// claims for the solver, retraction and the HTTP service go through
// cmd/polce-benchmark, whose workloads check their own results.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"polce"
	"polce/internal/bench"
	"polce/internal/model"
	"polce/internal/randgraph"
	"polce/internal/telemetry"
)

// logger carries the binary's stderr diagnostics as structured JSON; the
// benchmark tables and reports themselves still go to stdout as text.
var logger = telemetry.NopLogger()

func die(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}

func main() {
	var (
		table     = flag.Int("table", 0, "regenerate one table (1-4)")
		figure    = flag.Int("figure", 0, "regenerate one figure (7-11)")
		modelSel  = flag.String("model", "", "evaluate the analytical model: thm51 or thm52")
		all       = flag.Bool("all", false, "regenerate every table, figure and theorem")
		maxAST    = flag.Int("max-ast", 20000, "largest benchmark (AST nodes) to include")
		full      = flag.Bool("full", false, "run the full suite regardless of size (slow: the Plain runs are superlinear)")
		benchSel  = flag.String("bench", "", "run a single named benchmark")
		seed      = flag.Int64("seed", 1, "variable-order seed")
		repeat    = flag.Int("repeat", 1, "timed repetitions per cell (best time kept; the paper used 3)")
		ablation  = flag.Bool("ablation", false, "also run the ablations (increasing chains, periodic sweeps) and print the ablation table")
		cfaExp    = flag.Bool("cfa", false, "run the future-work experiment: cycle elimination applied to closure analysis")
		diag      = flag.Bool("diagnostics", false, "print the Section 5 premise measurements (densities, visits/search)")
		orders    = flag.Bool("orders", false, "run the §2.4 order-choice ablation (random vs creation vs reverse)")
		sweep     = flag.Bool("sweep", false, "run the scaling sweep (growth exponents of SF-Plain vs IF-Online)")
		baseline  = flag.Bool("baseline", false, "compare Andersen against the Steensgaard unification baseline (time and precision)")
		csvPath   = flag.String("csv", "", "also write the full measurement matrix as CSV to this file")
		metrics   = flag.Bool("metrics", false, "record and print per-benchmark phase timings (solve/closure/least-solution) and search-depth p50/p90/max")
		parallel  = flag.Bool("parallel", false, "run the experiment grid on the worker-pool runner (form × policy × order × seed across GOMAXPROCS workers)")
		workers   = flag.Int("workers", 0, "worker-pool size for -parallel (0 = GOMAXPROCS)")
		baseOut   = flag.String("baseline-out", "", "write the -parallel grid measurements as a JSON baseline to this file")
		lsWorkers = flag.Int("ls-workers", 0, "least-solution pass worker count (0 = GOMAXPROCS, 1 = sequential)")
		lsVerify  = flag.Bool("ls-verify", false, "verify the parallel least-solution pass is bit-identical to the sequential one on every benchmark")

		walVerify   = flag.String("wal-verify", "", "replay this constraint-log directory standalone and check the recovered graph against its manifest (recording it on first run)")
		walManifest = flag.String("wal-manifest", "", "manifest path for -wal-verify (default <dir>/manifest.json)")
		walSamples  = flag.Int("wal-samples", 0, "least solutions sampled into the manifest for -wal-verify (0 = 64)")

		logLevel = flag.String("log-level", "info", "stderr diagnostic level: debug, info, warn, error")
	)
	flag.Parse()

	level, err := telemetry.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "polce-bench: %v\n", err)
		os.Exit(2)
	}
	logger = telemetry.NewLogger(os.Stderr, level)

	if *walVerify != "" {
		err := bench.RunWALVerify(os.Stdout, bench.WALVerifyOptions{
			Dir:          *walVerify,
			ManifestPath: *walManifest,
			Samples:      *walSamples,
		})
		if err != nil {
			die(err)
		}
		return
	}

	if *lsVerify {
		limit := *maxAST
		if *full {
			limit = 1 << 30
		}
		w := *lsWorkers
		if w <= 1 {
			w = 4
		}
		if err := bench.VerifyLeastSolutions(os.Stdout, bench.SuiteUpTo(limit), *seed, w); err != nil {
			die(err)
		}
		return
	}

	if !*all && *table == 0 && *figure == 0 && *modelSel == "" && !*ablation && !*cfaExp && !*diag && !*orders && !*sweep && !*baseline && !*metrics && !*parallel && *baseOut == "" {
		flag.Usage()
		os.Exit(2)
	}

	var tables, figures []int
	var models []string
	if *all {
		tables = []int{1, 2, 3, 4}
		figures = []int{7, 8, 9, 10, 11}
		models = []string{"thm51", "thm52"}
	}
	if *table != 0 {
		tables = append(tables, *table)
	}
	if *figure != 0 {
		figures = append(figures, *figure)
	}
	if *modelSel != "" {
		models = append(models, *modelSel)
	}

	// Decide which experiments the requested outputs need.
	need := map[string]bool{}
	for _, t := range tables {
		switch t {
		case 2:
			need["SF-Plain"], need["IF-Plain"], need["SF-Oracle"], need["IF-Oracle"] = true, true, true, true
		case 3:
			need["SF-Online"], need["IF-Online"] = true, true
		}
	}
	for _, f := range figures {
		switch f {
		case 7:
			need["SF-Plain"], need["IF-Plain"] = true, true
		case 8:
			need["SF-Oracle"], need["IF-Oracle"], need["SF-Online"], need["IF-Online"] = true, true, true, true
		case 9:
			need["SF-Plain"], need["SF-Online"], need["IF-Online"] = true, true, true
		case 10, 11:
			need["SF-Online"], need["IF-Online"] = true, true
		}
	}
	if *ablation {
		need[bench.Ablation.Name] = true
		need["SF-Online"], need["IF-Online"] = true, true
		for _, e := range bench.PeriodicAblations {
			need[e.Name] = true
		}
	}
	if *diag || *metrics {
		need["SF-Online"], need["IF-Online"] = true, true
	}
	var exps []string
	for _, e := range bench.Experiments {
		if need[e.Name] {
			exps = append(exps, e.Name)
		}
	}
	if need[bench.Ablation.Name] {
		exps = append(exps, bench.Ablation.Name)
	}
	for _, e := range bench.PeriodicAblations {
		if need[e.Name] {
			exps = append(exps, e.Name)
		}
	}

	// Assemble the suite.
	limit := *maxAST
	if *full {
		limit = 1 << 30
	}
	suite := bench.SuiteUpTo(limit)
	if *benchSel != "" {
		b, ok := bench.ByName(*benchSel)
		if !ok {
			die(fmt.Errorf("unknown benchmark %q", *benchSel))
		}
		suite = []bench.Benchmark{b}
	}

	if *parallel || *baseOut != "" {
		runParallelGrid(suite, exps, *seed, *workers, *repeat, *lsWorkers, *baseOut)
	}

	var results []*bench.Result
	if len(exps) > 0 || containsInt(tables, 1) {
		logger.Info("running experiments", "experiments", len(exps), "benchmarks", len(suite))
		var err error
		results, err = bench.RunSuite(suite, exps, bench.Options{
			Seed:   *seed,
			Repeat: *repeat,
			// Phase breakdowns and depth distributions feed the -metrics
			// table and the CSV's phase/histogram-summary columns.
			Phases:    *metrics || *csvPath != "",
			LSWorkers: *lsWorkers,
		})
		if err != nil {
			die(err)
		}
	}

	out := os.Stdout
	for _, t := range tables {
		switch t {
		case 1:
			bench.Table1(out, results)
		case 2:
			bench.Table2(out, results)
		case 3:
			bench.Table3(out, results)
		case 4:
			bench.Table4(out)
		default:
			die(fmt.Errorf("no table %d", t))
		}
		fmt.Fprintln(out)
	}
	for _, f := range figures {
		switch f {
		case 7:
			bench.Figure7(out, results)
		case 8:
			bench.Figure8(out, results)
		case 9:
			bench.Figure9(out, results)
		case 10:
			bench.Figure10(out, results)
		case 11:
			bench.Figure11(out, results)
		default:
			die(fmt.Errorf("no figure %d", f))
		}
		fmt.Fprintln(out)
	}
	for _, m := range models {
		switch m {
		case "thm51":
			theorem51(out)
		case "thm52":
			theorem52(out)
		default:
			die(fmt.Errorf("unknown model %q (thm51, thm52)", m))
		}
		fmt.Fprintln(out)
	}

	if *diag {
		bench.Diagnostics(out, results)
		fmt.Fprintln(out)
	}
	if *metrics {
		bench.PhaseTable(out, results)
		fmt.Fprintln(out)
	}
	if *ablation {
		bench.AblationTable(out, results)
		fmt.Fprintln(out)
	}
	if *sweep {
		if err := bench.Sweep(out, nil, *seed); err != nil {
			die(err)
		}
		fmt.Fprintln(out)
	}
	if *orders {
		if err := bench.OrderExperiment(out, suite, *seed); err != nil {
			die(err)
		}
		fmt.Fprintln(out)
	}
	if *baseline {
		if err := bench.BaselineComparison(out, suite, *seed); err != nil {
			die(err)
		}
		fmt.Fprintln(out)
	}
	if *cfaExp || *all {
		if err := bench.CFAExperiment(out, nil, *seed); err != nil {
			die(err)
		}
	}
	if *csvPath != "" && len(results) > 0 {
		f, err := os.Create(*csvPath)
		if err != nil {
			die(err)
		}
		if err := bench.WriteCSV(f, results); err != nil {
			die(err)
		}
		if err := f.Close(); err != nil {
			die(err)
		}
		logger.Info("wrote CSV", "path", *csvPath)
	}
}

// runParallelGrid fans the experiment grid across the worker pool and
// prints a per-cell summary; with baseOut it also writes the committed
// baseline JSON (see BENCH_pr2.json). Each cell's seed is derived
// deterministically from the base seed and the cell's coordinates.
func runParallelGrid(suite []bench.Benchmark, expNames []string, seed int64, workers, repeat, lsWorkers int, baseOut string) {
	var exps []bench.Experiment
	for _, name := range expNames {
		if e, ok := bench.ExperimentByName(name); ok {
			exps = append(exps, e)
		}
	}
	if len(exps) == 0 {
		// The baseline's minimum coverage: the two online configurations.
		for _, name := range []string{"SF-Online", "IF-Online"} {
			e, _ := bench.ExperimentByName(name)
			exps = append(exps, e)
		}
	}
	cells := bench.Grid(suite, exps, []polce.OrderStrategy{polce.OrderRandom}, []int64{seed})
	for i := range cells {
		cells[i].Seed = bench.CellSeed(seed, cells[i])
	}
	opt := bench.ParallelOptions{Workers: workers, Repeat: repeat, Phases: true, LSWorkers: lsWorkers}
	logger.Info("running grid", "cells", len(cells), "workers", effectiveWorkers(workers))
	start := time.Now()
	results := bench.RunParallel(cells, opt)
	logger.Info("grid done", "elapsed", time.Since(start).Round(time.Millisecond).String())
	bench.ParallelTable(os.Stdout, results)
	fmt.Fprintln(os.Stdout)
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
		}
	}
	if failed > 0 {
		die(fmt.Errorf("%d cell(s) failed", failed))
	}
	if baseOut != "" {
		f, err := os.Create(baseOut)
		if err != nil {
			die(err)
		}
		b := bench.NewBaseline(results, opt, time.Now())
		if err := bench.WriteBaseline(f, b); err != nil {
			die(err)
		}
		if err := f.Close(); err != nil {
			die(err)
		}
		logger.Info("wrote baseline", "path", baseOut, "cells", len(b.Cells))
	}
}

func effectiveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// theorem51 prints the analytic E(X_SF)/E(X_IF) ratio at the paper's
// operating point alongside a Monte-Carlo measurement on simulated random
// graphs.
func theorem51(w *os.File) {
	fmt.Fprintln(w, "Theorem 5.1: expected closure work, standard vs inductive form (p = 1/n, m/n = 2/3)")
	fmt.Fprintf(w, "%10s %16s %16s %8s\n", "n", "E(X_SF)", "E(X_IF)", "ratio")
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		m := 2 * n / 3
		p := 1 / float64(n)
		sf := model.EdgeAdditionsSF(n, m, p)
		inf := model.EdgeAdditionsIF(n, m, p)
		fmt.Fprintf(w, "%10d %16.0f %16.0f %8.3f\n", n, sf, inf, sf/inf)
	}
	fmt.Fprintln(w, "\nMonte-Carlo validation (perfect cycle elimination, 20 trials each):")
	fmt.Fprintf(w, "%10s %10s\n", "n", "work ratio")
	for _, n := range []int{500, 1500, 4000} {
		ratio := randgraph.MeanClosureRatio(randgraph.Params{
			N: n, M: 2 * n / 3, P: 1 / float64(n), Seed: 42,
		}, 20)
		fmt.Fprintf(w, "%10d %10.2f\n", n, ratio)
	}
	fmt.Fprintln(w, "\nShape check: the analytic ratio approaches ≈2.5 (Theorem 5.1); the paper")
	fmt.Fprintln(w, "measured an average of 4.1x more work for SF on its benchmarks.")
}

// theorem52 prints the reach bound and its Monte-Carlo measurement.
func theorem52(w *os.File) {
	fmt.Fprintln(w, "Theorem 5.2: expected nodes reachable through order-decreasing chains (p = k/n)")
	fmt.Fprintf(w, "%6s %12s %14s\n", "k", "bound", "exact (n=1e4)")
	for _, k := range []float64{0.5, 1, 2, 3, 4} {
		fmt.Fprintf(w, "%6.1f %12.3f %14.3f\n", k, model.ExpectedReachBound(k), model.ExpectedReachExact(10000, k/10000))
	}
	fmt.Fprintln(w, "\nMonte-Carlo measurement at k = 2 (10 trials):")
	got := randgraph.MeanReach(500, 2.0/500, 42, 10)
	fmt.Fprintf(w, "  measured mean reach: %.3f (bound ≈ %.3f)\n", got, model.ExpectedReachBound(2))
	fmt.Fprintln(w, "\nShape check: at the closed graphs' density (k ≈ 2) a chain search visits ≈2")
	fmt.Fprintln(w, "nodes, which is why online detection costs only a constant per edge; the")
	fmt.Fprintln(w, "bound climbs sharply for denser graphs, so the method relies on sparsity.")
}
