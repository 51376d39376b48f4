package benchmark

// MetricDef names one reported metric, its unit and which direction is
// better. The end-to-end and per-layer lists below are the catalog
// BENCHMARK.json mirrors entry for entry; a per-layer name starts with its
// layer. README.md gives each one's definition and the end-to-end metric it
// should move.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// EndToEnd are the metrics a user of the system sees. Every workload
// reports all of them, from an untraced run, and none of them is ever 0.
// An "op" is the workload's unit of work: one corpus pass (andersen-*),
// one retract/re-submit/read edit cycle (retract-churn) or one HTTP request
// timed from its due time (serve-mixed). The op-time tail is reported with
// the samples and, per op type, by the loadgen per-layer metrics, but it is
// not bounded here: on a shared host a set of runs spreads by up to half in
// its tail, twice the widest bound the benchmark format allows.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"alloc_mb", "MiB", "lower"},
	{"live_heap_mb", "MiB", "lower"},
}

// PerLayer are the metrics of single layers, reported by a traced run.
// Counts marked "per op" are normalised by the number of ops measured. A
// workload that does not exercise a layer reports 0 for its metrics.
var PerLayer = []MetricDef{
	{"cgen.parse_ms", "ms", "lower"},
	{"andersen.initial_ms", "ms", "lower"},
	{"andersen.analyze_ms", "ms", "lower"},
	{"scl.parse_us_p50", "us", "lower"},
	{"scl.lower_us_p50", "us", "lower"},
	{"core.closure_ms", "ms", "lower"},
	{"core.ls_ms", "ms", "lower"},
	{"core.add_us_p50", "us", "lower"},
	{"core.retract_ms_p50", "ms", "lower"},
	{"core.retract_cone_vars", "count", "lower"},
	{"core.retract_cone_frac", "ratio", "lower"},
	{"core.retract_replayed", "count", "lower"},
	{"core.work", "count", "lower"},
	{"core.redundant_frac", "ratio", "lower"},
	{"core.searches", "count", "lower"},
	{"core.visits_per_search", "count", "lower"},
	{"core.cycle_hit_frac", "ratio", "higher"},
	{"core.search_depth_p90", "count", "lower"},
	{"core.eliminated", "count", "higher"},
	{"core.edges", "count", "lower"},
	{"core.ls_work", "count", "lower"},
	{"core.ls_cone_vars", "count", "lower"},
	{"core.ls_levels", "count", "lower"},
	{"core.ls_union_hit_rate", "ratio", "higher"},
	{"graph.live_vars", "count", "lower"},
	{"graph.vars_created", "count", "lower"},
	{"graph.worklist_hwm", "count", "lower"},
	{"serve.admit_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p99", "ms", "lower"},
	{"serve.ingest_drain_ms_p50", "ms", "lower"},
	{"serve.handoff_ms_p50", "ms", "lower"},
	{"serve.queue_depth_max", "count", "lower"},
	{"serve.snapshot_capture_ms_p50", "ms", "lower"},
	{"serve.ls_pass_ms_p50", "ms", "lower"},
	{"serve.snapshot_hit_frac", "ratio", "higher"},
	{"serve.post_http_ms_p50", "ms", "lower"},
	{"serve.delete_http_ms_p50", "ms", "lower"},
	{"serve.get_http_ms_p50", "ms", "lower"},
	{"net.client_gap_ms_p50", "ms", "lower"},
	{"wal.append_ms_p50", "ms", "lower"},
	{"wal.bytes_per_batch", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.mallocs", "count", "lower"},
	{"loadgen.lag_ms_p99", "ms", "lower"},
	{"loadgen.slo_miss_frac", "ratio", "lower"},
	{"loadgen.error_frac", "ratio", "lower"},
	{"loadgen.write_ms_p50", "ms", "lower"},
	{"loadgen.write_ms_p99", "ms", "lower"},
	{"loadgen.delete_ms_p50", "ms", "lower"},
	{"loadgen.delete_ms_p99", "ms", "lower"},
	{"loadgen.read_ms_p50", "ms", "lower"},
	{"loadgen.read_ms_p99", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.child_coverage", "ratio", "higher"},
}
