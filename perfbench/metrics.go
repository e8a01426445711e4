package main

// endToEnd lists the end-to-end metrics, reported by every workload with
// --trace 0. BENCHMARK.json declares the same names, units and bounds.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"allocate_s", "s"},
	{"evaluate_s", "s"},
	{"wv", "ratio"},
	{"oos_gap", "share"},
	{"peak_rss_mb", "MB"},
	{"adopt_p50_s", "s"},
	{"read_p50_ms", "ms"},
	{"migrate_mb", "MB"},
}

// perLayer lists the per-layer metrics, reported by every workload with
// --trace 1. A layer that a workload does not run reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"simplex.lp_iters", "count"},
	{"simplex.iters_per_node", "count"},
	{"simplex.iters_per_s", "1/s"},
	{"mip.bb_nodes", "count"},
	{"mip.max_gap", "ratio"},
	{"mip.nodes_per_s", "1/s"},
	{"core.optimal", "count"},
	{"core.feasible", "count"},
	{"core.degraded", "count"},
	{"core.degraded_delta", "ratio"},
	{"core.retries", "count"},
	{"core.split_s.root", "s"},
	{"core.split_s.g0", "s"},
	{"core.split_s.g1", "s"},
	{"core.hint_s", "s"},
	{"core.critical_path_s", "s"},
	{"eval.build_s", "s"},
	{"eval.worstload_us", "us"},
	{"eval.scenarios_per_s", "1/s"},
	{"eval.unservable", "count"},
	{"scenario.insample_s", "s"},
	{"scenario.outofsample_s", "s"},
	{"scenario.reclusterings", "count"},
	{"scenario.max_deviation", "share"},
	{"service.ingest_ms", "ms"},
	{"service.solve_s", "s"},
	{"service.lp_iters_per_adoption", "count"},
	{"service.overhead_s", "s"},
	{"service.adoption_ratio", "share"},
	{"service.adoptions", "count"},
	{"service.adopt_tail_s", "s"},
	{"service.adopt_tail_pct", "%"},
	{"service.read_bytes", "bytes"},
	{"service.reads", "count"},
	{"service.read_tail_ms", "ms"},
	{"service.read_tail_pct", "%"},
	{"service.generator_late_ms", "ms"},
	{"checkpoint.state_bytes", "bytes"},
	{"check.fail_share", "share"},
	{"trace.cost_ms", "ms"},
	{"trace.overhead_share", "share"},
	{"trace.spans", "count"},
	{"gate.runs_on_record", "count"},
}

// traceLayers are the span names whose self time the traced run reports
// as self_s.<name>.
var traceLayers = []string{
	"run", "setup", "scenario.insample", "scenario.outofsample", "bootstrap",
	"allocate", "split.root", "split.group", "split.hint", "check", "evaluate",
	"eval.serial", "eval.build", "read", "update", "ingest", "wait", "solve",
}

// layerDefaults reports every per-layer metric, at 0 until a workload sets
// it, so each traced run prints the full set.
func layerDefaults(r *run) {
	for _, m := range perLayer {
		r.setLayer(m.name, m.unit, 0)
	}
	for _, name := range traceLayers {
		r.setLayer("self_s."+name, "s", 0)
	}
}
