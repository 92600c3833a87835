package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and directions (TestCatalogMatchesBenchmarkJSON);
// Bound is only meaningful for end-to-end metrics, Moves only for
// per-layer ones.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Moves is the prediction later changes are held to: the end-to-end
	// metric and workload this layer metric should move.
	Moves string
}

// Workload names, in the order a run without -workload executes them.
const (
	wGravity = "gravity_plummer"
	wKNN     = "knn_cosmo"
	wRebuild = "rebuild_drift"
	wServe   = "serve_mixed"
)

var workloadNames = []string{wGravity, wKNN, wRebuild, wServe}

// endToEndDefs are measured with tracing off. Every workload reports every
// one of them: a "step" is the unit of work a user of that workload waits
// on — one simulation iteration on the three iteration workloads, one
// query on serve_mixed (see README.md for the per-workload definitions).
// The bounds come from the calibration in README.md: wide enough for the
// worst workload's spread over ten seeds and for how far this host drifts
// between two sets of runs, and at most the contract's 0.25.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "step_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "step_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_kb_per_step", Unit: "KB", Better: "lower", Bound: 0.25},
	{Name: "mem_live_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "rebuild_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayerDefs are measured in the traced run (-trace 1). A metric that
// does not apply to a workload reads 0 there; for several of them that 0
// is itself the prediction (a layer the workload bypasses).
var perLayerDefs = []metricDef{
	// Driver-callback spans: they tile one step exactly.
	{Name: "core.build_ms", Unit: "ms", Better: "lower", Moves: "step_ms_p50: all of rebuild_drift, ~7% of gravity_plummer, ~4% of knn_cosmo; rebuild_ms_p50 everywhere"},
	{Name: "traverse.wall_ms", Unit: "ms", Better: "lower", Moves: "step_ms_p50 on gravity_plummer and knn_cosmo; 0 on rebuild_drift"},
	{Name: "app.post_ms", Unit: "ms", Better: "lower", Moves: "step_ms_p50 on knn_cosmo (~6%), <1% on gravity_plummer"},
	{Name: "core.gather_ms", Unit: "ms", Better: "lower", Moves: "step_ms_p50 on gravity_plummer and knn_cosmo (<1%)"},
	{Name: "app.drift_ms", Unit: "ms", Better: "lower", Moves: "step_ms_p50 on rebuild_drift (the benchmark's own particle update)"},
	// Build breakdown from public accessors.
	{Name: "core.decomp_tree_top_ms", Unit: "ms", Better: "lower", Moves: "core.build_ms -> step_ms_p50 on rebuild_drift; setup_s everywhere"},
	{Name: "core.leaf_share_ms", Unit: "ms", Better: "lower", Moves: "core.build_ms -> step_ms_p50 on rebuild_drift; setup_s everywhere"},
	{Name: "core.scratch_build_ms", Unit: "ms", Better: "lower", Moves: "setup_s everywhere"},
	{Name: "core.split_buckets", Unit: "count", Better: "lower", Moves: "core.leaf_share_ms"},
	{Name: "core.patch_reuse_share", Unit: "ratio", Better: "higher", Moves: "step_ms_p50 on rebuild_drift; rebuild_ms_p50 on serve_mixed"},
	{Name: "core.fallback_builds", Unit: "count", Better: "lower", Moves: "must stay 0 on rebuild_drift and serve_mixed"},
	{Name: "cache.kept_share", Unit: "ratio", Better: "higher", Moves: "rebuild_ms_p50 on serve_mixed; step_ms_p50 on rebuild_drift"},
	// Build-pipeline probes on the final particle set.
	{Name: "sfc.key_ns_per_particle", Unit: "ns", Better: "lower", Moves: "core.build_ms -> step_ms_p50 on rebuild_drift, setup_s"},
	{Name: "particle.radix_sort_ns_per_particle", Unit: "ns", Better: "lower", Moves: "core.build_ms -> step_ms_p50 on rebuild_drift, setup_s"},
	{Name: "decomp.assign_ms", Unit: "ms", Better: "lower", Moves: "core.build_ms -> step_ms_p50 on rebuild_drift, setup_s"},
	{Name: "tree.build_ns_per_particle", Unit: "ns", Better: "lower", Moves: "core.scratch_build_ms -> setup_s; 4-7% of gravity_plummer and knn_cosmo steps"},
	{Name: "tree.serialize_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "cache.fetch_rtt_us_p50 -> step_ms_p50 on gravity_plummer only"},
	{Name: "tree.deserialize_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "cache.fetch_rtt_us_p50 -> step_ms_p50 on gravity_plummer only"},
	// Runtime (simulated machine).
	{Name: "rt.messages_per_iter", Unit: "count", Better: "lower", Moves: "step_ms_p50 on gravity_plummer; must read 0 on knn_cosmo"},
	{Name: "rt.mb_per_iter", Unit: "MB", Better: "lower", Moves: "step_ms_p50 on gravity_plummer; 0 on knn_cosmo"},
	{Name: "rt.tasks_per_iter", Unit: "count", Better: "lower", Moves: "step_ms_p50 on gravity_plummer"},
	{Name: "rt.lock_wait_ms_per_iter", Unit: "ms", Better: "lower", Moves: "step_ms_p50 on gravity_plummer"},
	{Name: "rt.cpu_ms.idle", Unit: "ms", Better: "lower", Moves: "step_ms_p90 via imbalance"},
	{Name: "rt.cpu_ms.other", Unit: "ms", Better: "lower", Moves: "step_ms_p50"},
	{Name: "rt.roundtrip_us_p50", Unit: "us", Better: "lower", Moves: "cache.fetch_rtt_us_p50; step_ms_p50 on serve_mixed (each wave crosses procs)"},
	// Software cache.
	{Name: "cache.requests_per_iter", Unit: "count", Better: "lower", Moves: "traverse.wall_ms on gravity_plummer; must read 0 on knn_cosmo"},
	{Name: "cache.duplicate_requests_per_iter", Unit: "count", Better: "lower", Moves: "traverse.wall_ms on gravity_plummer"},
	{Name: "cache.nodes_shipped_per_iter", Unit: "count", Better: "lower", Moves: "traverse.wall_ms on gravity_plummer"},
	{Name: "cache.cpu_ms.request", Unit: "ms", Better: "lower", Moves: "traverse.wall_ms on gravity_plummer; 0 on knn_cosmo"},
	{Name: "cache.cpu_ms.insert", Unit: "ms", Better: "lower", Moves: "traverse.wall_ms on gravity_plummer; 0 on knn_cosmo"},
	{Name: "cache.cpu_ms.resume", Unit: "ms", Better: "lower", Moves: "traverse.wall_ms on gravity_plummer; 0 on knn_cosmo"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Moves: "parked time inside traverse.wall_ms on gravity_plummer; step_ms_p50 on serve_mixed"},
	{Name: "cache.fetch_rtt_us_p50", Unit: "us", Better: "lower", Moves: "parked time inside traverse.wall_ms on gravity_plummer"},
	{Name: "cache.fetch_rtt_us_p99", Unit: "us", Better: "lower", Moves: "step_ms_p90 on gravity_plummer"},
	// Traversal engines.
	{Name: "traverse.cpu_ms.local", Unit: "ms", Better: "lower", Moves: "step_ms_p50 on gravity_plummer and knn_cosmo"},
	{Name: "traverse.visits_per_iter", Unit: "count", Better: "lower", Moves: "step_ms_p50 on gravity_plummer and knn_cosmo; must read 0 on rebuild_drift"},
	{Name: "traverse.opens_per_iter", Unit: "count", Better: "lower", Moves: "step_ms_p50 on gravity_plummer and knn_cosmo"},
	{Name: "traverse.prunes_per_iter", Unit: "count", Better: "higher", Moves: "step_ms_p50 on gravity_plummer and knn_cosmo"},
	{Name: "traverse.parks_per_iter", Unit: "count", Better: "lower", Moves: "traverse.wall_ms on gravity_plummer"},
	{Name: "traverse.imbalance", Unit: "ratio", Better: "lower", Moves: "step_ms_p90 on gravity_plummer (each step waits for the slower process)"},
	{Name: "traverse.walk_only_ms", Unit: "ms", Better: "lower", Moves: "engine cost -> step_ms_p50 on gravity_plummer"},
	{Name: "traverse.ns_per_visit", Unit: "ns", Better: "lower", Moves: "step_ms_p50 on gravity_plummer; the one-traversal-core item is judged here"},
	// Visitor kernels.
	{Name: "gravity.open_ns", Unit: "ns", Better: "lower", Moves: "traverse.wall_ms - traverse.walk_only_ms on gravity_plummer"},
	{Name: "gravity.node_ns", Unit: "ns", Better: "lower", Moves: "traverse.wall_ms - traverse.walk_only_ms on gravity_plummer"},
	{Name: "gravity.leaf_ns_per_pair", Unit: "ns", Better: "lower", Moves: "traverse.wall_ms - traverse.walk_only_ms on gravity_plummer"},
	{Name: "gravity.node_calls_per_iter", Unit: "count", Better: "lower", Moves: "step_ms_p50 on gravity_plummer"},
	{Name: "gravity.leaf_pairs_per_iter", Unit: "count", Better: "lower", Moves: "step_ms_p50 on gravity_plummer"},
	{Name: "gravity.accel_err_median", Unit: "ratio", Better: "lower", Moves: "correctness on gravity_plummer: must stay <= 0.005"},
	{Name: "knn.open_ns", Unit: "ns", Better: "lower", Moves: "step_ms_p50 on knn_cosmo"},
	{Name: "knn.leaf_ns_per_pair", Unit: "ns", Better: "lower", Moves: "step_ms_p50 on knn_cosmo"},
	{Name: "knn.leaf_pairs_per_iter", Unit: "count", Better: "lower", Moves: "step_ms_p50 on knn_cosmo"},
	{Name: "app.kernel_share", Unit: "ratio", Better: "lower", Moves: "ceiling on what a faster kernel saves of traverse.cpu_ms.local"},
	// Query service.
	{Name: "serve.edge_us_p50", Unit: "us", Better: "lower", Moves: "step_ms_p50 on serve_mixed = edge + queue wait + wave"},
	{Name: "serve.queue_wait_us_p50", Unit: "us", Better: "lower", Moves: "step_ms_p50 on serve_mixed"},
	{Name: "serve.wave_us_p50", Unit: "us", Better: "lower", Moves: "step_ms_p50 on serve_mixed"},
	{Name: "serve.batch_size_mean.steady", Unit: "count", Better: "higher", Moves: "serve.wave_us_p50 amortisation in steady"},
	{Name: "serve.batch_size_mean.saturate", Unit: "count", Better: "higher", Moves: "work_per_s on serve_mixed rises with it"},
	{Name: "serve.engine_us_per_query.b1", Unit: "us", Better: "lower", Moves: "step_ms_p50 on serve_mixed"},
	{Name: "serve.engine_us_per_query.b32", Unit: "us", Better: "lower", Moves: "work_per_s on serve_mixed"},
	{Name: "serve.batcher_overhead_us", Unit: "us", Better: "lower", Moves: "step_ms_p50 and work_per_s on serve_mixed"},
	{Name: "serve.query_ms_p99", Unit: "ms", Better: "lower", Moves: "diagnostic: stalls; too unsteady on this host to bound"},
	{Name: "serve.query_ms_mean_under_refresh", Unit: "ms", Better: "lower", Moves: "Refresh holding the engine write lock shows here before step_ms_p50"},
	{Name: "serve.refresh_ms_max", Unit: "ms", Better: "lower", Moves: "diagnostic for rebuild_ms_p50 on serve_mixed"},
	{Name: "serve.rejected_share", Unit: "ratio", Better: "lower", Moves: "failed operations on serve_mixed"},
	{Name: "serve.gen_late_ms_max", Unit: "ms", Better: "lower", Moves: "diagnostic: a starved load generator"},
	{Name: "serve.response_kb_per_query", Unit: "KB", Better: "lower", Moves: "serve.edge_us_p50, alloc_kb_per_step on serve_mixed"},
	// Observability cost and the Go runtime.
	{Name: "metrics.trace_overhead_share", Unit: "ratio", Better: "lower", Moves: "the cost of Config.Metrics (iteration workloads) or span tracing (serve_mixed) on step_ms_p50"},
	{Name: "runtime.allocs_per_iter", Unit: "count", Better: "lower", Moves: "alloc_kb_per_step"},
	{Name: "runtime.gc_cycles_per_iter", Unit: "count", Better: "lower", Moves: "step_ms_p90"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower", Moves: "step_ms_p90"},
	{Name: "runtime.mem_sys_mb", Unit: "MB", Better: "lower", Moves: "diagnostic: MemStats.Sys follows GC pacing; mem_live_mb is the bounded figure"},
	// The harness itself.
	{Name: "bench.prepare_s", Unit: "s", Better: "lower", Moves: "dataset generation and oracle; outside setup_s"},
	{Name: "bench.failed_share", Unit: "ratio", Better: "lower", Moves: "expected 0 on every workload"},
	{Name: "bench.explained_share", Unit: "ratio", Better: "higher", Moves: "share of the traced step_ms_p50 the layer spans account for (>= 0.98 on iteration workloads)"},
	{Name: "bench.traced_step_ms_p50", Unit: "ms", Better: "lower", Moves: "the traced run's own median step; never compared with step_ms_p50"},
}
