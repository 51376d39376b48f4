// Command polce-benchmark is the repository's benchmark: one command runs a
// named workload at a given seed for a fixed time, checks the program's
// outputs, and prints every metric by name with its unit and sample count;
// the last line of its standard output is the result as one JSON object.
//
//	polce-benchmark -workload andersen-if -seed 1 -seconds 28 -trace 0 -out runs.ndjson
//	polce-benchmark -workload serve-mixed -trace 1 -trace-out serve.ndjson
//	polce-benchmark -compare base.ndjson change.ndjson
//
// See internal/benchmark/README.md for the workloads and metrics.
package main

import (
	"context"
	"os"

	"polce/internal/benchmark"
)

func main() {
	os.Exit(benchmark.Main(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}
