// Command polce-solve runs the inclusion-constraint solver standalone on a
// textual constraint program (the .scl format of internal/scl) — the
// solver-as-a-tool face of the library, independent of any program
// analysis.
//
// Usage:
//
//	polce-solve constraints.scl
//	polce-solve -form sf -cycles none -stats constraints.scl
//	echo 'cons a; a <= X; X <= Y; query Y' | polce-solve -
//
// Each `query V` line in the program prints V's least solution.
//
// Observability (same flags as the polce command):
//
//	polce-solve -metrics-out m.txt constraints.scl   # Prometheus text at exit
//	polce-solve -trace-out t.ndjson constraints.scl  # NDJSON solver-event trace
//	polce-solve -http :6060 constraints.scl          # serve /metrics, /metrics.json,
//	                                                 # /debug/vars and /debug/pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"polce"
	"polce/internal/scl"
	"polce/internal/telemetry"
)

func main() {
	var (
		form     = flag.String("form", "if", "graph representation: sf or if")
		cycles   = flag.String("cycles", "online", "cycle policy: none, online, online-incr, periodic")
		seed     = flag.Int64("seed", 1, "variable-order seed")
		interval = flag.Int("interval", 0, "sweep interval for -cycles periodic")
		stats    = flag.Bool("stats", false, "print solver statistics")
		dotOut   = flag.String("dot", "", "write the final constraint graph as Graphviz DOT to this file")

		metricsOut = flag.String("metrics-out", "", "write Prometheus-text solver metrics to this file at exit")
		traceOut   = flag.String("trace-out", "", "stream solver events as NDJSON to this file (closing record carries the final stats)")
		httpAddr   = flag.String("http", "", "serve /metrics, /metrics.json, /debug/vars and /debug/pprof on this address (e.g. :6060); keeps serving after the run until interrupted")
		logLevel   = flag.String("log-level", "info", "stderr diagnostic level: debug, info, warn, error")
	)
	flag.Parse()
	level, err := telemetry.ParseLogLevel(*logLevel)
	if err != nil {
		fatal("%v", err)
	}
	logger = telemetry.NewLogger(os.Stderr, level)
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	// Telemetry wiring, mirroring cmd/polce: the registry and sink exist
	// only when asked for, so the solver's hooks stay a single nil check
	// otherwise.
	var (
		reg *telemetry.Registry
		sm  *telemetry.SolverMetrics
		tw  *telemetry.TraceWriter
	)
	if *metricsOut != "" || *traceOut != "" || *httpAddr != "" {
		reg = telemetry.NewRegistry()
		sm = telemetry.NewSolverMetrics(reg)
		telemetry.PublishExpvar("polce-solve", reg)
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

	var src []byte
	if flag.Arg(0) == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		fatal("%v", err)
	}

	file, err := scl.Parse(string(src))
	if err != nil {
		fatal("%v", err)
	}

	opt := polce.Options{Seed: *seed, PeriodicInterval: *interval}
	if sm != nil {
		opt.Metrics = sm
	}
	if tw != nil {
		opt.Observer = tw.Observe
	}
	switch strings.ToLower(*form) {
	case "sf":
		opt.Form = polce.SF
	case "if":
		opt.Form = polce.IF
	default:
		fatal("unknown form %q", *form)
	}
	switch strings.ToLower(*cycles) {
	case "none", "plain":
		opt.Cycles = polce.CycleNone
	case "online":
		opt.Cycles = polce.CycleOnline
	case "online-incr", "incr":
		opt.Cycles = polce.CycleOnlineIncreasing
	case "periodic":
		opt.Cycles = polce.CyclePeriodic
	default:
		fatal("unknown cycle policy %q", *cycles)
	}

	solved := file.Solve(opt)
	for _, line := range solved.QueryResults() {
		fmt.Println(line)
	}
	if *stats {
		fmt.Printf("\n%s / %s  %s\n", opt.Form, opt.Cycles, solved.Sys.Stats())
		fmt.Printf("final-edges=%d\n", solved.Sys.TotalEdges())
	}
	if n := solved.Sys.ErrorCount(); n > 0 {
		logger.Warn("inconsistent constraints", "count", n, "first", solved.Sys.Errors()[0].Error())
	}
	if *dotOut != "" {
		writeFile(*dotOut, solved.Sys.WriteDOT)
	}

	if sm != nil {
		telemetry.PublishStats(reg, solved.Sys.Stats())
	}
	if tw != nil {
		tw.WriteStats(solved.Sys.Stats())
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
}

// logger is re-created once -log-level is parsed; the package-level
// default covers diagnostics before that (flag errors included).
var logger = telemetry.NewLogger(os.Stderr, slog.LevelInfo)

func fatal(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
