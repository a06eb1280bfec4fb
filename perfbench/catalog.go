package main

// metricDef describes one reported metric the way BENCHMARK.json lists
// it. Bound, for end-to-end metrics only, is the share of the parent's
// median by which the metric may get worse before a change counts as a
// regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef names a workload and why the benchmark has it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloadDefs lists the workloads in the order BENCHMARK.json gives.
var workloadDefs = []workloadDef{
	{"figures", "the paper's Figure 4/5 matrix through cata.RunMatrix: many small runs, so per-run fixed costs and engine time show"},
	{"dag-scale", "three 16k-task synthetic DAGs under four policies: per-task cost in tdg, sched, policies and the generators shows"},
	{"open-soak", "one open-system run of thousands of injected jobs: the rts injection path, opensys and heap growth per job show"},
	{"service", "catad over loopback: open-loop latency and closed-loop saturation of server, jobs, batch cache and JSON"},
}

// endToEnd are the metrics every workload reports untraced. An op is a
// simulation (figures, dag-scale), an injected job (open-soak) or a
// served request (service); the catalog in main.go's doc comment says
// which sample each latency percentile is taken over.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.2},
	{"tasks_per_s", "1/s", "higher", 0.2},
	{"latency_p50_ms", "ms", "lower", 0.2},
	{"latency_p90_ms", "ms", "lower", 0.24},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// perLayer are the metrics a traced run reports, named <layer>.<metric>
// with the layer named after its package. Time-valued ones are measured
// on every workload; shares, ratios and counts of a layer a workload
// never reaches read 0 there.
var perLayer = []metricDef{
	{"workloads.build_us_per_task", "us", "lower", 0},
	{"workloads.build_allocs_per_task", "count", "lower", 0},
	{"exp.overhead_us_per_run", "us", "lower", 0},
	{"exp.allocs_per_run", "count", "lower", 0},
	{"exp.allocs_per_job", "count", "lower", 0},
	{"exp.heap_kb_per_job", "KB", "lower", 0},
	{"exp.paper_gap_pct", "%", "lower", 0},
	{"rts.host_ns_per_event", "ns", "lower", 0},
	{"rts.events_per_task", "count", "lower", 0},
	{"tdg.replay_ns_per_task", "ns", "lower", 0},
	{"tdg.visited_per_submit", "count", "lower", 0},
	{"sched.inversions_per_ktask", "count", "lower", 0},
	{"machine.dvfs_transitions_per_ktask", "count", "lower", 0},
	{"rsm.accel_grant_ratio", "ratio", "higher", 0},
	{"rsm.reconfig_overhead_pct", "%", "lower", 0},
	{"opensys.schedule_pct", "%", "lower", 0},
	{"opensys.shed_ratio", "ratio", "lower", 0},
	{"opensys.deadline_miss_ratio", "ratio", "lower", 0},
	{"batch.hit_ratio", "ratio", "higher", 0},
	{"batch.get_us", "us", "lower", 0},
	{"batch.put_us", "us", "lower", 0},
	{"batch.open_us_per_record", "us", "lower", 0},
	{"jobs.queue_pct", "%", "lower", 0},
	{"jobs.run_pct", "%", "lower", 0},
	{"server.admit_pct", "%", "lower", 0},
	{"server.notify_pct", "%", "lower", 0},
	{"runtime.gc_cpu_share", "%", "lower", 0},
	{"runtime.malloc_cpu_share", "%", "lower", 0},
	{"bench.gen_late_p99_pct", "%", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// perLayerDefs returns perLayer followed by one <layer>.cpu_share per
// profiled layer.
func perLayerDefs() []metricDef {
	defs := append([]metricDef(nil), perLayer...)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{Name: l + ".cpu_share", Unit: "%", Better: "lower"})
	}
	return defs
}
