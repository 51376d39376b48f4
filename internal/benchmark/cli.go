package benchmark

import (
	"context"
	"flag"
	"fmt"
	"io"
)

// DefaultSeconds is the run length BENCHMARK.json's run_seconds names.
const DefaultSeconds = 28

// Main is the polce-benchmark command: it parses args, runs one workload
// (or compares two run sets, or regenerates the golden file) and returns
// the process exit code. A run prints its report and, as the last line of
// stdout, the result object; it exits non-zero when any check failed.
func Main(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polce-benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload     = fs.String("workload", "", "workload to run: andersen-if, andersen-sf, retract-churn or serve-mixed")
		seed         = fs.Int64("seed", 1, "seed every input of the workload derives from")
		seconds      = fs.Float64("seconds", DefaultSeconds, "how long the run measures")
		trace        = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
		traceOut     = fs.String("trace-out", "", "with -trace 1, write the joined span trees to this NDJSON file")
		out          = fs.String("out", "", "append the full result as one JSON line to this run-set file")
		smoke        = fs.Bool("smoke", false, "shrink the workload to a size that runs in well under a second")
		compare      = fs.Bool("compare", false, "compare two run-set files: -compare A.json B.json")
		benchJSON    = fs.String("bench-json", "BENCHMARK.json", "BENCHMARK.json holding the bounds -compare applies")
		updateGolden = fs.Bool("update-golden", false, "regenerate "+GoldenPath+" (run from the repository root)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "polce-benchmark: %v\n", err)
		return 1
	}
	switch {
	case *updateGolden:
		log := func(format string, args ...any) { fmt.Fprintf(stdout, format+"\n", args...) }
		if err := UpdateGolden(GoldenPath, log); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two run-set files"))
		}
		return runCompare(*benchJSON, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	res, err := Run(ctx, Config{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		TraceOut: *traceOut,
		Smoke:    *smoke,
	})
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := AppendResult(*out, res); err != nil {
			return fail(err)
		}
	}
	line, err := res.Line()
	if err != nil {
		return fail(err)
	}
	res.WriteReport(stdout)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func runCompare(benchJSON, pathA, pathB string, stdout, stderr io.Writer) int {
	bounds, err := LoadBounds(benchJSON)
	if err == nil && len(bounds) == 0 {
		err = fmt.Errorf("%s lists no end-to-end metrics", benchJSON)
	}
	var a, b []Result
	if err == nil {
		a, err = ReadResults(pathA)
	}
	if err == nil {
		b, err = ReadResults(pathB)
	}
	if err != nil {
		fmt.Fprintf(stderr, "polce-benchmark: %v\n", err)
		return 1
	}
	rows := Compare(bounds, a, b)
	fmt.Fprintf(stdout, "A = %s (%d runs), B = %s (%d runs)\n", pathA, len(a), pathB, len(b))
	WriteComparison(stdout, rows)
	for _, r := range rows {
		if r.Verdict == Worse {
			return 1
		}
	}
	return 0
}
