// Command perfbench is the repository's end-to-end benchmark: it runs
// one workload of the simulator, or of the catad service built on it,
// in its own process, checks that every output is correct, and prints
// every metric as "name value unit", then the full result as one JSON
// line, then a last JSON line of the form
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// It builds against the module in the parent directory and reaches the
// program only through its public functions: cata.RunMatrix, RunBatch,
// Run, server.New driven by cata.ServiceClient, and the exported
// functions of workloads, tdg, opensys, batch and metrics.
//
// # Running
//
// From the repository root (run.sh builds the binary into .bench_build
// and keeps every file a run writes there):
//
//	bash perfbench/run.sh --workload figures --seed 42 --seconds 10 --trace 0
//
// -seed (default 42) drives every input; round r of a run uses seed+r.
// -seconds is the measured time. Workers, sender goroutines and HTTP
// connections are each min(nproc, 4), or -workers; a run warns when that
// exceeds nproc. Each run sets its workload up 5 times and reports the
// median as setup_s, runs one untimed warm-up, then timed rounds; each
// metric is the median over rounds (the latencies their first
// quartile), reported with its quartiles and sample count. The exit
// status is 1 when any check fails.
//
// # Host speed
//
// On a shared host the same binary's speed drifts by a third within
// minutes as neighbours contend for cores and caches. Every round and
// every set-up therefore runs between two calibrations, which
// neighbouring rounds share: a full collection, then a fixed kernel
// (calibrate.go) run three times on as many goroutines as the round
// uses. A round's times are scaled to a reference speed by calNominal
// over the kernel's median time. The kernel is benchmark code the
// program never runs, so a change to the program moves the scaled
// numbers as it moves the raw ones. The result's "raw" field keeps every
// end-to-end metric unscaled, with the kernel's times.
//
// # Workloads
//
//   - figures: the paper's Figure 4/5 matrix — all 9 registered policies
//     × the 6 paper benchmarks × 8/16/24 fast cores at full scale, 3 seeds
//     per round, no cache. Runs are small (384–1,536 tasks), so the engine
//     and per-run fixed costs dominate and batch, jobs and server do not
//     run. An op is one simulation; latencies are per simulation. Every
//     run also evaluates the default-seed reference matrix: all 10 paper
//     claims must hold and its CSV must match digests.json.
//   - dag-scale: layered:width=256,depth=64,fanin=4,
//     forkjoin:width=1024,phases=16 and wavefront:rows=128,cols=128, about
//     16k tasks each, under FIFO, CATS+BL, CATA and AMTHA at 16 fast cores:
//     12 runs per round through cata.RunBatch. The per-task regime: deep
//     ready queues, bottom-level walks over wide layers, AMTHA's premap
//     and workloads.Build move this workload and not figures. An op is one
//     simulation.
//   - open-soak: one cata.Run per round of
//     poisson:lambda=3000,jobs=2500,deadline=2ms,cap=64,window=500ms over
//     forkjoin:width=16,phases=2,dur=200 jobs under CATA at 16 fast cores.
//     The only workload on the rts injection path and opensys; heap work
//     grows with the job count. An op is one injected job; the latency
//     sample is the whole soak run, so both percentiles read the same.
//   - service: catad over loopback TCP, on a cache pre-populated with
//     4,000 records generated before any timing. Half the requests repeat
//     a pre-populated configuration (a cache read), half are fresh (a
//     simulation and a cache append), all at scale 0.1. Phase A, 70% of
//     the time, is an open loop at 250 requests/s in 1.5 s rounds, each
//     request timed from when it was due. Its generator sleeps on a timer,
//     then naps in nanosleeps and yield-spins to the due time; the run
//     fails if its median lateness exceeds a tenth of the median latency.
//     Phase B is a closed loop of one client per worker in 0.5 s rounds.
//     Latencies come from phase A, ops_per_s and tasks_per_s from phase B.
//     Every served result must be byte-equal to a direct cata.Run of its
//     configuration, repeats must come from the cache and fresh requests
//     must not.
//
// # End-to-end metrics (untraced runs; bounds in BENCHMARK.json)
//
//	setup_s         s    lower   median of 5 set-ups: resolve specs and build the
//	                             inputs; for service, server.New + cache load +
//	                             listener + first /healthz
//	ops_per_s       1/s  higher  simulations, injected jobs or served requests per host second
//	tasks_per_s     1/s  higher  simulated tasks delivered per host second
//	latency_p50_ms  ms   lower   per-op latency: first quartile over rounds of each
//	                             round's p50 (host stalls only ever add latency)
//	latency_p90_ms  ms   lower   the same for p90
//	peak_rss_mb     MB   lower   median over rounds of each round's peak resident set
//	                             (Linux VmHWM, reset before the round); for the service,
//	                             over its open-loop rounds, whose request count is fixed
//
// The tail is p90, not p99: on a 2-vCPU VM the host stalls a process for
// 1 to 12 ms every few seconds even when it is idle, and at 250
// requests/s those stalls decide the p99. Over twelve service runs
// during such a stretch the run-to-run quartile spread of the median
// per-round p99 was 31%, of p95 15% and of p90 13%. The service's
// traced run prints the layers' p99s.
//
// Failures are not a metric: they are the result's "failed" count, and
// any failure makes the run incorrect.
//
// # Per-layer metrics (traced runs)
//
// Named <layer>.<metric> after the package. Each says which end-to-end
// metric it should move, and where:
//
//	workloads.build_us_per_task, build_allocs_per_task   tasks_per_s on dag-scale; ops_per_s on open-soak
//	exp.overhead_us_per_run (exp.Run host time minus the
//	  cata_sim_wall_seconds_total delta), allocs_per_run ops_per_s on figures
//	exp.allocs_per_job, heap_kb_per_job                  peak_rss_mb and ops_per_s on open-soak
//	exp.paper_gap_pct                                    none; the reference matrix's mean
//	                                                     relative error against the paper's CATA
//	                                                     and CATA+RSU best speedup (1.184, 1.204)
//	                                                     and best normalized EDP (0.699, 0.660),
//	                                                     the only reference numbers there are and
//	                                                     possibly tuned against, so none is held out
//	rts.host_ns_per_event, events_per_task               ops_per_s on figures, tasks_per_s on dag-scale
//	tdg.replay_ns_per_task, visited_per_submit           tasks_per_s on dag-scale (CATS+BL, layered)
//	sched.inversions_per_ktask                           simulated; tasks_per_s on dag-scale
//	machine.dvfs_transitions_per_ktask,
//	  rsm.accel_grant_ratio, reconfig_overhead_pct       simulated; model changes only
//	opensys.schedule_pct, shed_ratio, deadline_miss_ratio ops_per_s on open-soak
//	batch.hit_ratio, get_us, put_us, open_us_per_record  setup_s and latency_p50_ms on service
//	jobs.queue_pct, run_pct (share of request time)      latency_p90_ms, ops_per_s on service
//	server.admit_pct, notify_pct                         latency_p50_ms on service
//	runtime.gc_cpu_share, malloc_cpu_share               peak_rss_mb and throughput on figures, open-soak
//	<layer>.cpu_share for workloads exp rts sim tdg sched policies machine
//	  energy rsm cpufreq rsu turbo opensys batch jobs server json net_http
//	bench.gen_late_p99_pct, trace_overhead_pct           validity only
//
// Time-valued per-layer metrics are measured on every workload (batch
// timings on the workload's own output records); shares, ratios and
// counts of a layer a workload never reaches read 0 there. A traced run
// also prints the service's layer latencies in ms (admit, queue wait,
// run, notify), which are not gated.
//
// # Traced runs
//
// With -trace 1 the run measures half its time untraced and then runs
// the same workload and seeds again with instrumentation on; end-to-end
// numbers always come from the untraced pass, and trace_overhead_pct
// compares the two. The traced pass records spans around each call the
// benchmark makes into a layer — round → workloads.Build, tdg.replay,
// exp.Run, opensys.Schedule; for the service, request → server.admit,
// jobs.queue, jobs.run, server.notify from the job's timestamps — and
// captures a CPU profile, folded by the package of each sample's leaf
// frame with `go tool pprof -raw`. Spans (Chrome trace JSON, for
// Perfetto) and the profile are written to
// <work>/trace/<workload>-seed<seed>/.
//
// # Correctness
//
// Every workload digests its deterministic outputs: figures the matrix
// CSV, dag-scale each run's makespan, tasks and energy bits, open-soak
// the whole result including the open-system report, service the
// pre-populated records. Round 0 of every pass must reproduce the digest
// of the warm-up, which computes the same round on one worker; at the
// default seed the digest must match digests.json, and a model change
// that moves results must update it.
//
// # Comparing
//
//	perfbench compare [-bench BENCHMARK.json] DIR_A DIR_B
//
// reads two directories of saved run outputs (one file per run, runs of
// the two sides alternating) and prints, per workload and end-to-end
// metric, each side's median and quartiles, how much worse B is, the
// spread, how many pairs B won, and a verdict: pass, regression (worse
// than the bound), unresolved (spread wider than the bound), or gain (B
// better in at least 9 of 10 pairs by more than A's quartile spread).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: figures, dag-scale, open-soak or service")
		seed         = flag.Uint64("seed", defaultSeed, "seed of every input; round r uses seed+r")
		seconds      = flag.Float64("seconds", 10, "measured time in seconds")
		trace        = flag.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
		workers      = flag.Int("workers", 0, "workers, senders and connections (default min(nproc, 4))")
		work         = flag.String("work", ".bench_build/work", "scratch directory for caches, traces and profiles")
	)
	flag.Parse()
	if flag.Arg(0) == "compare" {
		os.Exit(runCompare(flag.Args()[1:], os.Stdout, os.Stderr))
	}
	if flag.NArg() > 0 || *workloadName == "" || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-workers N]")
		fmt.Fprintln(os.Stderr, "       perfbench compare [-bench BENCHMARK.json] DIR_A DIR_B")
		os.Exit(2)
	}
	res, err := run(config{
		workload: *workloadName,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		workers:  *workers,
		work:     *work,
	}, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
