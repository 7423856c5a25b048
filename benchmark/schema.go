package main

// runSeconds is how long one run measures (BENCHMARK.json's run_seconds).
const runSeconds = 10

// e2eMetric is a metric a user of the system sees. Bound is the share of
// the parent's median by which it may get worse before a change counts as
// a regression.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerMetric is a number of one layer; it has no bound.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is printed by every workload on the untraced pass. README.md
// says what each means on each workload.
var endToEnd = []e2eMetric{
	{"setup_s", "s", lower, 0.25},
	{"compile_ms", "ms", lower, 0.25},
	{"compile_alloc_mb", "MB", lower, 0.10},
	{"compile_per_s", "1/s", higher, 0.25},
	{"run_ms", "ms", lower, 0.25},
	{"orig_run_ms", "ms", lower, 0.25},
}

// workloadDecls names the workloads in the order a full run takes them.
var workloadDecls = []workloadDecl{
	{"doall_map", "plain compiled-tier steps and a handful of dispatches, zero queue ops: the control that must not move when the communication plane changes"},
	{"dswp_pipe", "queue push/pop dominates run_ms: where an SPSC ring, chunked transfers or first-class queue ops must show"},
	{"helix_pipe", "ticket signals and one dispatch fork per iteration: uses queue and dispatch differently from dswp_pipe"},
	{"auto_mix", "both kinds of loop in one main, per-loop selection by auto: the heaviest compile path and where a do-no-harm gate shows"},
	{"compile_cold", "alias solve, PDG build and store writes over a 138-function module with an empty store"},
	{"compile_warm", "the same op against a populated store: store reads and decode in place of PDG builds"},
	{"serve_closed", "the daemon's session, LRU, store and frame path under closed-loop mixed hit/miss/transform traffic"},
}

// perLayer is printed by every workload on the traced pass; a metric the
// workload does not exercise reads 0. The name before the first dot is
// the package (layer) the number belongs to.
var perLayer = []layerMetric{
	{"minic.compile_ms", "ms", lower},
	{"passes.optimize_ms", "ms", lower},
	{"ir.instrs_in", "count", lower},
	{"ir.instrs_out", "count", lower},
	{"profiler.collect_ms", "ms", lower},
	{"profiler.ns_per_step", "ns", lower},
	{"irtext.parse_ms", "ms", lower},
	{"irtext.parse_mb_per_s", "MB/s", higher},
	{"ir.print_ms", "ms", lower},
	{"ir.fingerprint_ms", "ms", lower},
	{"ir.clone_ms", "ms", lower},
	{"alias.solve_ms", "ms", lower},
	{"core.pdg_cold_ms", "ms", lower},
	{"core.pdg_cold_us_per_fn", "us", lower},
	{"core.precompute_ms", "ms", lower},
	{"core.loop_bundle_ms", "ms", lower},
	{"loops.count", "count", lower},
	{"core.pdg_builds", "count", lower},
	{"core.nostore_compile_ms", "ms", lower},
	{"abscache.open_ms", "ms", lower},
	{"abscache.decode_us_per_fn", "us", lower},
	{"abscache.flush_ms", "ms", lower},
	{"abscache.disk_kb", "KB", lower},
	{"abscache.hit_ratio", "ratio", higher},
	{"tool.perspective_ms", "ms", lower},
	{"tool.licm_ms", "ms", lower},
	{"tool.dead_ms", "ms", lower},
	{"tool.doall_ms", "ms", lower},
	{"tool.dswp_ms", "ms", lower},
	{"tool.helix_ms", "ms", lower},
	{"tool.auto_ms", "ms", lower},
	{"tool.licm_applied", "count", higher},
	{"tool.dead_applied", "count", higher},
	{"tool.loops_lowered", "count", higher},
	{"verify.quick_ms", "ms", lower},
	{"verify.comm_ms", "ms", lower},
	{"machine.modeled_speedup", "ratio", higher},
	{"machine.model_error", "ratio", lower},
	{"interp.compiled_ns_per_step", "ns", lower},
	{"interp.walker_ns_per_step", "ns", lower},
	{"interp.steps_orig", "count", lower},
	{"interp.steps_lowered", "count", lower},
	{"interp.step_inflation", "ratio", lower},
	{"interp.seq_run_ms", "ms", lower},
	{"interp.lowering_tax", "ratio", lower},
	{"interp.e2e_speedup", "ratio", higher},
	{"interp.run_p90_ms", "ms", lower},
	{"interp.dispatch_forks", "count", lower},
	{"interp.dispatch_us_per_fork", "us", lower},
	{"interp.lane_util_pct", "%", higher},
	{"queue.ns_per_op_same_goroutine", "ns", lower},
	{"queue.ns_per_op_spsc", "ns", lower},
	{"queue.ns_per_signal_handoff", "ns", lower},
	{"queue.pushes", "count", lower},
	{"queue.pops", "count", lower},
	{"queue.waits", "count", lower},
	{"queue.fires", "count", lower},
	{"queue.park_ms", "ms", lower},
	{"queue.op_p50_ns", "ns", lower},
	{"queue.op_p95_ns", "ns", lower},
	{"queue.blocked_share", "ratio", lower},
	{"obs.trace_overhead_frac", "ratio", lower},
	{"serve.req_per_s", "1/s", higher},
	{"serve.req_p99_ms", "ms", lower},
	{"serve.hot_p50_ms", "ms", lower},
	{"serve.fresh_p50_ms", "ms", lower},
	{"serve.transform_p50_ms", "ms", lower},
	{"serve.session_hit_ratio", "ratio", higher},
	{"serve.queue_wait_p50_ms", "ms", lower},
	{"serve.saturated", "count", lower},
	{"serve.coalesced", "count", lower},
	{"serve.frame_roundtrip_us", "us", lower},
	{"bench.span_coverage", "ratio", higher},
	{"bench.fail_share", "ratio", lower},
}

// exactCounts are the per-layer metrics that must repeat exactly: between
// the untraced and the traced pass, and between two runs of one commit.
var exactCounts = []string{
	"ir.instrs_in", "ir.instrs_out",
	"interp.steps_orig", "interp.steps_lowered",
	"queue.pushes", "queue.pops", "queue.waits", "queue.fires",
	"core.pdg_builds", "tool.licm_applied", "tool.dead_applied", "tool.loops_lowered",
	"loops.count",
}

// benchmarkFile is BENCHMARK.json: the declarations above under the keys
// the driver reads.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []e2eMetric    `json:"end_to_end"`
	PerLayer   []layerMetric  `json:"per_layer"`
}

func declared() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDecls,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
