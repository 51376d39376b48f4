// Command polce runs the inclusion-constraint solver with a chosen graph
// representation and cycle-elimination policy. The input decides the
// front end: a C source file is analysed with Andersen's points-to
// analysis and its points-to sets are printed; a textual constraint
// program (the .scl format of internal/scl, or - for stdin) is solved as
// written and the least solution of each `query V` line is printed.
//
// Usage:
//
//	polce [flags] file.c
//	polce -form if -cycles online -stats file.c
//	polce -steensgaard file.c          # the unification baseline instead
//	polce -form sf -cycles none -stats constraints.scl
//	echo 'cons a; a <= X; X <= Y; query Y' | polce -
//
// With -gen N a synthetic benchmark program of roughly N AST nodes is
// analysed instead of a file (useful for quick experiments). The
// points-to flags (-pts, -only-nonempty, -steensgaard, -pts-dot, -alias,
// -json) apply to C input only; setting one on a constraint program is an
// error.
//
// Observability (see the README's Observability section):
//
//	polce -metrics-out m.txt file.c    # Prometheus-text metrics at exit
//	polce -trace-out t.ndjson file.c   # NDJSON solver-event trace
//	polce -http :6060 -gen 2000        # serve /metrics, /metrics.json,
//	                                   # /debug/vars and /debug/pprof while
//	                                   # solving, and keep serving after
//
// The telemetry flags instrument the inclusion-constraint solver path:
// phase timers (parse, constraint-gen, closure, least-solution), search
// depth / collapse size / worklist histograms, and edge-attempt counters
// with a redundant-edge ratio gauge. On a constraint program only the
// solver's own phases (closure, least-solution) are timed.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"polce"
	"polce/internal/andersen"
	"polce/internal/cgen"
	"polce/internal/core"
	"polce/internal/progen"
	"polce/internal/scl"
	"polce/internal/steens"
	"polce/internal/telemetry"
)

var (
	form      = flag.String("form", "if", "graph representation: "+core.FormNames())
	cycles    = flag.String("cycles", "online", "cycle policy: "+core.CyclePolicyNames())
	seed      = flag.Int64("seed", 1, "variable-order seed")
	stats     = flag.Bool("stats", false, "print solver statistics")
	pts       = flag.Bool("pts", true, "print points-to sets")
	onlyPtrs  = flag.Bool("only-nonempty", true, "print only non-empty points-to sets")
	steensOpt = flag.Bool("steensgaard", false, "run the Steensgaard unification baseline instead")
	gen       = flag.Int("gen", 0, "analyse a generated program of roughly N AST nodes instead of a file")
	interval  = flag.Int("interval", 0, "sweep interval for -cycles periodic (0 = default)")
	trace     = flag.Bool("trace", false, "print cycle collapses and sweeps as they happen")
	dotOut    = flag.String("dot", "", "write the final constraint graph as Graphviz DOT to this file")
	ptsDotOut = flag.String("pts-dot", "", "write the points-to graph as Graphviz DOT to this file")
	aliasQ    = flag.String("alias", "", "answer a may-alias query: two location names separated by a comma")
	jsonOut   = flag.String("json", "", "write the analysis report as JSON to this file ('-' for stdout)")

	metricsOut = flag.String("metrics-out", "", "write Prometheus-text solver metrics to this file at exit")
	traceOut   = flag.String("trace-out", "", "stream solver events as NDJSON to this file (closing record carries the final stats)")
	httpAddr   = flag.String("http", "", "serve /metrics, /metrics.json, /debug/vars and /debug/pprof on this address (e.g. :6060); keeps serving after the run until interrupted")
	logLevel   = flag.String("log-level", "info", "stderr diagnostic level: debug, info, warn, error")
)

func main() {
	flag.Parse()

	level, err := telemetry.ParseLogLevel(*logLevel)
	if err != nil {
		fatal("%v", err)
	}
	logger = telemetry.NewLogger(os.Stderr, level)
	opt := polce.Options{Seed: *seed, PeriodicInterval: *interval}
	if opt.Form, err = polce.ParseForm(*form); err != nil {
		fatal("%v", err)
	}
	if opt.Cycles, err = polce.ParseCyclePolicy(*cycles); err != nil {
		fatal("%v", err)
	}
	// The input decides the front end: a constraint program is solved as
	// written, anything else is C for Andersen's analysis.
	arg := flag.Arg(0)
	sclInput := *gen == 0 && flag.NArg() == 1 && (arg == "-" || strings.HasSuffix(arg, ".scl"))
	if sclInput {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "pts", "only-nonempty", "steensgaard", "pts-dot", "alias", "json":
				fatal("-%s applies to C input only", f.Name)
			}
		})
	}

	// Telemetry wiring: the registry and sink exist only when asked for,
	// so the solver's hot-path hooks stay a single nil check otherwise.
	var (
		reg *telemetry.Registry
		sm  *telemetry.SolverMetrics
		tw  *telemetry.TraceWriter
	)
	if *metricsOut != "" || *traceOut != "" || *httpAddr != "" {
		reg = telemetry.NewRegistry()
		sm = telemetry.NewSolverMetrics(reg)
		opt.Metrics = sm
		telemetry.PublishExpvar("polce", reg)
	}
	if *httpAddr != "" {
		if _, err := telemetry.Serve(*httpAddr, reg, func(err error) {
			logger.Error("http server error", "error", err.Error())
		}); err != nil {
			fatal("%v", err)
		}
		logger.Info("serving telemetry", "addr", *httpAddr,
			"endpoints", "/metrics /metrics.json /debug/vars /debug/pprof")
	}
	if *traceOut != "" {
		var err error
		tw, err = telemetry.CreateTrace(*traceOut)
		if err != nil {
			fatal("%v", err)
		}
	}

	var observers []func(polce.Event)
	if *trace {
		observers = append(observers, func(ev polce.Event) {
			switch ev.Kind {
			case polce.EventCycle:
				logger.Info("cycle collapsed",
					"vars", len(ev.Vars), "witness", ev.Witness.Name(), "work", ev.Work)
			case polce.EventSweep:
				logger.Info("sweep collapsed", "vars", ev.Collapsed, "work", ev.Work)
			}
		})
	}
	if tw != nil {
		observers = append(observers, tw.Observe)
	}
	switch len(observers) {
	case 0:
	case 1:
		opt.Observer = observers[0]
	default:
		opt.Observer = func(ev polce.Event) {
			for _, o := range observers {
				o(ev)
			}
		}
	}

	var sys *polce.Solver
	if sclInput {
		sys = solveSCL(arg, opt)
	} else if sys = analyzeC(opt, sm); sys == nil {
		return // the Steensgaard baseline builds no constraint graph
	}
	if n := sys.ErrorCount(); n > 0 {
		logger.Warn("inconsistent constraints", "count", n, "first", sys.Errors()[0].Error())
	}
	if *dotOut != "" {
		writeFile(*dotOut, sys.WriteDOT)
	}

	if sm != nil {
		telemetry.PublishStats(reg, sys.Stats())
	}
	if tw != nil {
		tw.WriteStats(sys.Stats())
		n := tw.Events()
		if err := tw.Close(); err != nil {
			fatal("%v", err)
		}
		logger.Info("wrote trace", "path", *traceOut, "events", n)
	}
	if *metricsOut != "" {
		writeFile(*metricsOut, reg.WritePrometheus)
	}
	if *httpAddr != "" {
		logger.Info("run complete; still serving until interrupted", "addr", *httpAddr)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}

// solveSCL solves the constraint program at path ("-" for stdin) and
// prints the least solution of each of its queries.
func solveSCL(path string, opt polce.Options) *polce.Solver {
	var src []byte
	var err error
	if path == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(path)
	}
	if err != nil {
		fatal("%v", err)
	}
	file, err := scl.Parse(string(src))
	if err != nil {
		fatal("%v", err)
	}
	solved := file.Solve(opt)
	for _, line := range solved.QueryResults() {
		fmt.Println(line)
	}
	if *stats {
		fmt.Printf("\n%s / %s  %s\n", opt.Form, opt.Cycles, solved.Sys.Stats())
		fmt.Printf("final-edges=%d\n", solved.Sys.TotalEdges())
	}
	return solved.Sys
}

// analyzeC runs Andersen's analysis on the -gen program or the C file
// named on the command line and prints its results. It returns nil when
// -steensgaard ran the unification baseline instead.
func analyzeC(opt polce.Options, sm *telemetry.SolverMetrics) *polce.Solver {
	var src, name string
	switch {
	case *gen > 0:
		name = fmt.Sprintf("generated-%d.c", *gen)
		src = progen.Generate(progen.ByScale(*seed, *gen))
	case flag.NArg() == 1:
		name = flag.Arg(0)
		data, err := os.ReadFile(name)
		if err != nil {
			fatal("%v", err)
		}
		src = string(data)
	default:
		flag.Usage()
		os.Exit(2)
	}

	var parseSpan *telemetry.Span
	if sm != nil {
		parseSpan = sm.Phases.Start(telemetry.PhaseParse)
	}
	file, err := cgen.MustParse(name, src)
	if parseSpan != nil {
		parseSpan.Stop()
	}
	if err != nil {
		fatal("%v", err)
	}

	if *steensOpt {
		runSteensgaard(file, *pts, *onlyPtrs)
		return nil
	}

	start := time.Now()
	res := andersen.Analyze(file, andersen.Options{
		Form: opt.Form, Cycles: opt.Cycles, Seed: opt.Seed, PeriodicInterval: opt.PeriodicInterval,
		Observer: opt.Observer, Metrics: opt.Metrics,
	})
	if sm != nil {
		// The closure share was accumulated by the solver's drain hook;
		// constraint-gen is the analysis remainder.
		closure, _ := sm.Phases.Get(telemetry.PhaseClosure)
		sm.Phases.Add(telemetry.PhaseConstraintGen, time.Since(start)-closure)
	}
	// The least-solution phase timer is fed by the solver's
	// LeastSolutionDone hook (when sm is installed as the metrics sink),
	// so no external Phases.Add here — that would double-count the pass.
	res.Sys.ComputeLeastSolutions()
	elapsed := time.Since(start)

	if *pts {
		printPts(res, *onlyPtrs)
	}
	if *stats {
		st := res.Sys.Stats()
		fmt.Printf("\n%s / %s  time=%v\n", opt.Form, opt.Cycles, elapsed)
		fmt.Printf("  ast-nodes=%d loc=%d\n", cgen.CountNodes(file), cgen.CountLines(src))
		fmt.Printf("  %s\n", st)
		fmt.Printf("  final-edges=%d points-to-edges=%d\n", res.Sys.TotalEdges(), res.PointsToEdges())
		if st.CycleSearches > 0 {
			fmt.Printf("  visits/search=%.2f (Theorem 5.2 predicts ≈2.2 at density 2/n)\n", st.VisitsPerSearch())
		}
	}

	if *aliasQ != "" {
		parts := strings.SplitN(*aliasQ, ",", 2)
		if len(parts) != 2 {
			fatal("-alias wants two location names separated by a comma")
		}
		a := res.LocationByName(strings.TrimSpace(parts[0]))
		b := res.LocationByName(strings.TrimSpace(parts[1]))
		if a == nil || b == nil {
			fatal("-alias: unknown location (have e.g. %v)", firstNames(res, 8))
		}
		fmt.Printf("may-alias(%s, %s) = %v\n", a.Name, b.Name, res.MayAlias(a, b))
	}
	if *ptsDotOut != "" {
		writeFile(*ptsDotOut, res.WriteDOT)
	}
	if *jsonOut != "" {
		if *jsonOut == "-" {
			if err := res.WriteJSON(os.Stdout, false); err != nil {
				fatal("%v", err)
			}
		} else {
			writeFile(*jsonOut, func(w io.Writer) error { return res.WriteJSON(w, false) })
		}
	}
	return res.Sys
}

// writeFile writes a rendering to path via render.
func writeFile(path string, render func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	if err := render(f); err != nil {
		fatal("%v", err)
	}
	if err := f.Close(); err != nil {
		fatal("%v", err)
	}
	logger.Info("wrote file", "path", path)
}

// firstNames lists a few location names for error messages.
func firstNames(res *andersen.Result, n int) []string {
	var out []string
	for _, l := range res.Locations {
		if len(out) == n {
			break
		}
		out = append(out, l.Name)
	}
	return out
}

func printPts(res *andersen.Result, onlyNonempty bool) {
	type row struct {
		name string
		pts  []string
	}
	var rows []row
	for _, l := range res.Locations {
		names := res.PointsToNames(l)
		if onlyNonempty && len(names) == 0 {
			continue
		}
		sort.Strings(names)
		rows = append(rows, row{l.Name, names})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, r := range rows {
		fmt.Printf("%s -> {%s}\n", r.name, strings.Join(r.pts, ", "))
	}
}

func runSteensgaard(file *cgen.File, pts, onlyNonempty bool) {
	start := time.Now()
	a := steens.Analyze(file)
	elapsed := time.Since(start)
	if pts {
		for _, l := range a.Locations() {
			names := a.PointsToNames(l)
			if onlyNonempty && len(names) == 0 {
				continue
			}
			sort.Strings(names)
			fmt.Printf("%s -> {%s}\n", l.Name, strings.Join(names, ", "))
		}
	}
	fmt.Printf("\nsteensgaard  time=%v cells=%d locations=%d\n", elapsed, a.CellCount(), len(a.Locations()))
}

// logger is re-created once -log-level is parsed; the package-level
// default covers diagnostics before that (flag errors included).
var logger = telemetry.NewLogger(os.Stderr, slog.LevelInfo)

func fatal(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
