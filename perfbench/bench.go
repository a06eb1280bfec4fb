package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each run sets its workload up; setup_s is
// the median.
const setupReps = 5

// minRounds is the fewest timed rounds a pass runs, however short its
// time budget.
const minRounds = 3

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration // measured time; a traced run splits it between its two passes
	trace    bool
	workers  int
	work     string // scratch directory for cache files, traces and profiles
	tiny     bool   // test-only sizes
}

// env is what a workload sees of its run.
type env struct {
	seed    uint64
	workers int
	dir     string // the workload's scratch directory
}

// workload is one benchmark workload.
type workload interface {
	// prepare makes untimed fixtures (the service's pre-populated cache).
	prepare(e *env) error
	// setup makes the workload ready to measure. It is timed and runs
	// setupReps times, with teardown between repetitions.
	setup(e *env) error
	teardown() error
	// warm runs the untimed warm-up and returns the run's digest: for
	// the compute workloads, round 0's outputs computed on one worker,
	// which every pass's round 0 must reproduce on all workers.
	warm(e *env) (string, error)
	// measure runs timed rounds for about budget. With tr and ls non-nil
	// it records spans and layer measurements as it goes.
	measure(e *env, budget time.Duration, tr *tracer, ls *layerStats) (pass, error)
	// verify runs the checks that need the whole run and returns the
	// problems found and how many ops they invalidate.
	verify(e *env, ls *layerStats) (problems []string, failed int, err error)
}

// roundKind says which metrics a round's samples feed.
type roundKind int

const (
	throughputRound roundKind = 1 << iota // ops_per_s, tasks_per_s
	latencyRound                          // latency percentiles
	bothRound       = throughputRound | latencyRound
)

// round is one timed round's outcome.
type round struct {
	kind     roundKind
	ops      int   // operations attempted
	failed   int   // operations that errored or produced wrong output
	tasks    int64 // simulated tasks delivered
	elapsed  time.Duration
	lat      []time.Duration // per-op latencies
	late     []time.Duration // how late the open-loop generator woke for each request
	digest   string          // digest of the round's deterministic outputs, if any
	problems []string
	cal      time.Duration // calibration kernel time around the round
	rssMB    float64       // peak resident set during the round
}

// factor is what the round's times are multiplied by when normalizing:
// the calibration scale.
func (r round) factor(norm bool) float64 {
	if !norm {
		return 1
	}
	return scale(r.cal)
}

// pass is one measured pass: the rounds it ran.
type pass struct{ rounds []round }

// loopRounds runs rounds 0, 1, ... of fn on a roundClock of par
// goroutines until budget has elapsed and at least minRounds ran.
func loopRounds(budget time.Duration, par int, fn func(r int) (round, error)) (pass, error) {
	start := time.Now()
	clock := roundClock{par: par}
	var p pass
	for r := 0; r < minRounds || time.Since(start) < budget; r++ {
		rd, err := clock.run(func() (round, error) { return fn(r) })
		if err != nil {
			return p, err
		}
		p.rounds = append(p.rounds, rd)
	}
	return p, nil
}

// roundClock times consecutive rounds. It calibrates once between
// neighbouring rounds on par goroutines, so each round's calibration is
// the mean of the kernel times just before and just after it. Just
// before each round it returns freed memory to the OS and resets the
// peak-RSS watermark, so that a round's peak does not depend on how much
// garbage earlier rounds left resident.
type roundClock struct {
	par  int
	last time.Duration // the kernel time just before the next round
}

func (c *roundClock) run(fn func() (round, error)) (round, error) {
	if c.last == 0 {
		c.last = calibrate(c.par)
	}
	debug.FreeOSMemory()
	resetPeakRSS()
	rd, err := fn()
	rd.rssMB = peakRSSMB()
	after := calibrate(c.par)
	rd.cal = (c.last + after) / 2
	c.last = after
	return rd, err
}

// perRound returns one sample per round of the kind.
func (p pass) perRound(kind roundKind, f func(round) float64) []float64 {
	var xs []float64
	for _, r := range p.rounds {
		if r.kind&kind != 0 {
			xs = append(xs, f(r))
		}
	}
	return xs
}

func (p pass) opsPerSec(norm bool) []float64 {
	return p.perRound(throughputRound, func(r round) float64 { return float64(r.ops) / (r.elapsed.Seconds() * r.factor(norm)) })
}

func (p pass) tasksPerSec(norm bool) []float64 {
	return p.perRound(throughputRound, func(r round) float64 { return float64(r.tasks) / (r.elapsed.Seconds() * r.factor(norm)) })
}

// latency summarizes the pct-th latency percentile of each latency
// round. Its value is the rounds' first quartile, not their median: a
// stall of the host only ever adds latency, and an open loop's tail
// grows with stalls far faster than the calibration kernel slows. Over
// twelve service runs on a 2-vCPU VM, three of which met a stretch of
// stalls, the run-to-run spread of p90 was 19% by the median over
// rounds and 11% by the first quartile.
func (p pass) latency(pct float64, norm bool) summary {
	s := summarize("ms", p.perRound(latencyRound, func(r round) float64 { return ms(percentile(r.lat, pct)) * r.factor(norm) }))
	s.Value = s.Q1
	return s
}

// hasOpenLoop reports whether the pass ran an open loop.
func (p pass) hasOpenLoop() bool {
	return slices.ContainsFunc(p.rounds, func(r round) bool { return len(r.late) > 0 })
}

// lateness returns the pct-th percentile of the open-loop generator's
// lateness over all its requests; 0 for workloads without an open loop.
func (p pass) lateness(pct float64) float64 {
	var late []time.Duration
	for _, r := range p.rounds {
		late = append(late, r.late...)
	}
	return ms(percentile(late, pct))
}

func (p pass) totals() (ops, failed int, problems []string) {
	for _, r := range p.rounds {
		ops += r.ops
		failed += r.failed
		problems = append(problems, r.problems...)
	}
	return ops, failed, problems
}

// newWorkload returns the named workload at its benchmark size, or at
// its test-only size when tiny is set.
func newWorkload(name string, tiny bool) (workload, error) {
	switch name {
	case "figures":
		return newFigures(tiny), nil
	case "dag-scale":
		return newDagScale(tiny), nil
	case "open-soak":
		return newOpenSoak(tiny), nil
	case "service":
		return newService(tiny), nil
	}
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// machineInfo stamps a run with where it ran.
type machineInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Workers    int    `json:"workers"`
}

func stampMachine(workers int) machineInfo {
	return machineInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Workers:    workers,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// defaultWorkers caps workers, sender goroutines and HTTP connections
// at min(nproc, 4).
func defaultWorkers() int { return min(runtime.NumCPU(), 4) }

// resetPeakRSS restarts Linux's peak-RSS watermark (VmHWM), so that
// peakRSSMB reads the peak since the reset; elsewhere it does nothing.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak covers the whole run
}

// peakRSSMB returns the peak resident set size in MB: VmHWM from
// /proc/self/status, else getrusage's ru_maxrss (KB on Linux).
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

//go:embed digests.json
var digestsJSON []byte

// storedDigest returns the committed digest of a workload's outputs at
// the default seed.
func storedDigest(name string) (string, bool) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return "", false
	}
	d, ok := m[name]
	return d, ok
}

// defaultSeed is the seed whose digests digests.json holds.
const defaultSeed = 42

// digestOf hashes deterministic outputs.
func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// result is everything one run reports. The last line of the output is
// its contract form: correct, attempted, failed and the chosen metrics.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Machine   machineInfo        `json:"machine"`
	Digest    string             `json:"digest"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	// Raw holds the end-to-end metrics before scaling to the reference
	// speed, and the calibration kernel's times.
	Raw map[string]summary `json:"raw"`
	// Detail holds further readings printed for humans (the service's
	// layer latencies in ms); they are not gated.
	Detail map[string]float64 `json:"detail,omitempty"`
	// TraceFiles lists the span and CPU-profile files of a traced run.
	TraceFiles []string `json:"trace_files,omitempty"`
}

// run executes one benchmark run.
func run(c config, warn io.Writer) (*result, error) {
	w, err := newWorkload(c.workload, c.tiny)
	if err != nil {
		return nil, err
	}
	if c.workers <= 0 {
		c.workers = defaultWorkers()
	}
	res := &result{Workload: c.workload, Seed: c.seed, Trace: c.trace, Machine: stampMachine(c.workers)}
	if c.workers > res.Machine.NProc {
		fmt.Fprintf(warn, "perfbench: warning: %d workers exceed nproc=%d; timings will be inflated by oversubscription\n", c.workers, res.Machine.NProc)
	}
	e := &env{seed: c.seed, workers: c.workers, dir: filepath.Join(c.work, fmt.Sprintf("%s-%d", c.workload, os.Getpid()))}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)

	if err := w.prepare(e); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	var setups pass
	clock := roundClock{par: c.workers}
	for i := 0; i < setupReps; i++ {
		rd, err := clock.run(func() (round, error) {
			start := time.Now()
			err := w.setup(e)
			return round{kind: bothRound, elapsed: time.Since(start)}, err
		})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups.rounds = append(setups.rounds, rd)
		if i < setupReps-1 {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
	}
	defer w.teardown()

	digest, err := w.warm(e)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res.Digest = digest
	budget := c.seconds
	if c.trace {
		budget /= 2
	}
	plain, err := w.measure(e, budget, nil, nil)
	if err != nil {
		return nil, err
	}

	var traced pass
	var ls *layerStats
	var spans []span
	var prof cpuProfile
	var c0, c1 counters
	if c.trace {
		ls = &layerStats{}
		tr := &tracer{}
		dir := filepath.Join(c.work, "trace", fmt.Sprintf("%s-seed%d", c.workload, c.seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		profPath := filepath.Join(dir, "cpu.pprof")
		pf, err := os.Create(profPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return nil, err
		}
		c0 = readCounters()
		traced, err = w.measure(e, budget, tr, ls)
		c1 = readCounters()
		pprof.StopCPUProfile()
		if cerr := pf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		spans = tr.snapshot()
		spanPath := filepath.Join(dir, "spans.json")
		if err := writeSpans(spanPath, spans); err != nil {
			return nil, err
		}
		if prof, err = foldProfile(profPath); err != nil {
			return nil, err
		}
		res.TraceFiles = []string{spanPath, profPath}
	}

	problems, failedOps, err := w.verify(e, ls)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	for _, p := range []pass{plain, traced} {
		ops, failed, probs := p.totals()
		res.Attempted += ops
		res.Failed += failed
		problems = append(problems, probs...)
		if len(p.rounds) > 0 && p.rounds[0].digest != "" && p.rounds[0].digest != digest {
			problems = append(problems, fmt.Sprintf("round 0 digest %s differs from the one-worker warm-up's %s", p.rounds[0].digest, digest))
		}
	}
	res.Failed += failedOps
	if c.seed == defaultSeed && !c.tiny {
		key := fmt.Sprintf("%s/seed-%d", c.workload, c.seed)
		if want, ok := storedDigest(key); !ok {
			problems = append(problems, fmt.Sprintf("digests.json has no %s entry (computed %s)", key, digest))
		} else if want != digest {
			problems = append(problems, fmt.Sprintf("digest %s differs from digests.json %s = %s", digest, key, want))
		}
	}

	res.Metrics = endToEndMetrics(setups, plain, true)
	res.Raw = endToEndMetrics(setups, plain, false)
	res.Raw["calibration_ms"] = summarize("ms", plain.perRound(bothRound, func(r round) float64 { return ms(r.cal) }))
	m := res.Metrics
	if plain.hasOpenLoop() {
		// The open loop is valid only while its generator keeps the
		// schedule: its median lateness must stay under a tenth of the
		// median latency it is measuring. A timer that overshoots, or a
		// generator that cannot keep the rate, is late on most requests.
		// The p99 lateness is reported, not judged: it is the few
		// wake-ups that found both cores busy with the daemon and the
		// collector, on a 2-vCPU VM from 0.05 to 4 ms between runs, and
		// requests are timed from when they were due, so that wait
		// counts in their latency.
		p50, lateP50 := res.Raw["latency_p50_ms"].Value, plain.lateness(50)
		res.Detail = map[string]float64{"gen_late_p50_ms": lateP50, "gen_late_p99_ms": plain.lateness(99)}
		if lateP50 > p50/10 {
			problems = append(problems, fmt.Sprintf("open-loop generator ran late: median lateness %.3f ms exceeds a tenth of latency_p50 %.3f ms", lateP50, p50))
		}
	}
	if c.trace {
		for name, v := range layerMetrics(ls, c0, c1, spans, prof, plain, traced) {
			m[name] = summary{Value: v, Unit: unitOf(name), N: 1}
		}
		bt, err := timeBatch(e.dir, ls.records)
		if err != nil {
			return nil, err
		}
		m["batch.get_us"] = summary{Value: bt.getUs, Unit: "us", N: 1}
		m["batch.put_us"] = summary{Value: bt.putUs, Unit: "us", N: 1}
		m["batch.open_us_per_record"] = summary{Value: bt.openUsPerRecord, Unit: "us", N: 1}
		for k, v := range ls.detail {
			if res.Detail == nil {
				res.Detail = map[string]float64{}
			}
			res.Detail[k] = v
		}
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	if len(problems) > maxReported {
		problems = append(problems[:maxReported], fmt.Sprintf("and %d more problems", len(problems)-maxReported))
	}
	res.Problems = problems
	return res, nil
}

// maxReported bounds the problems a result lists individually.
const maxReported = 20

// endToEndMetrics summarizes the set-up repetitions and the untraced
// pass, with times scaled to the reference speed when norm is set.
func endToEndMetrics(setups, plain pass, norm bool) map[string]summary {
	return map[string]summary{
		"setup_s":        summarize("s", setups.perRound(bothRound, func(r round) float64 { return r.elapsed.Seconds() * r.factor(norm) })),
		"ops_per_s":      summarize("1/s", plain.opsPerSec(norm)),
		"tasks_per_s":    summarize("1/s", plain.tasksPerSec(norm)),
		"latency_p50_ms": plain.latency(50, norm),
		"latency_p90_ms": plain.latency(90, norm),
		// Latency rounds only: the service's closed loop serves as many
		// requests as the host allows, and its cache grows with them.
		"peak_rss_mb": summarize("MB", plain.perRound(latencyRound, func(r round) float64 { return r.rssMB })),
	}
}

// unitOf returns a catalogued metric's unit.
func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayerDefs()...) {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of a traced pass, except
// the batch timings, which need their own step.
func layerMetrics(ls *layerStats, c0, c1 counters, spans []span, prof cpuProfile, plain, traced pass) map[string]float64 {
	m := map[string]float64{}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	m["workloads.build_us_per_task"] = ratio(us(ls.buildTime), float64(ls.buildTasks))
	m["workloads.build_allocs_per_task"] = ratio(float64(ls.buildMallocs), float64(ls.buildTasks))
	m["exp.overhead_us_per_run"] = ratio(us(ls.runHost)-ls.runSimWall*1e6, float64(ls.runs))
	m["exp.allocs_per_run"] = ratio(float64(ls.runMallocs), float64(ls.runs))
	m["exp.allocs_per_job"] = ratio(float64(ls.jobMallocs), float64(ls.jobs))
	m["exp.heap_kb_per_job"] = ratio(float64(ls.jobBytes)/1024, float64(ls.jobs))
	m["exp.paper_gap_pct"] = ls.paperGap
	events := c1.sub(c0, "cata_sim_events_total")
	m["rts.host_ns_per_event"] = ratio(c1.sub(c0, "cata_sim_wall_seconds_total")*1e9, events)
	m["rts.events_per_task"] = ratio(events, float64(ls.simTasks))
	m["tdg.replay_ns_per_task"] = ratio(float64(ls.replayTime.Nanoseconds()), float64(ls.replayTasks))
	m["tdg.visited_per_submit"] = ratio(float64(ls.visited), float64(ls.replayTasks))
	m["sched.inversions_per_ktask"] = 1000 * ratio(float64(ls.inversions), float64(ls.invTasks))
	m["machine.dvfs_transitions_per_ktask"] = 1000 * ratio(c1.sub(c0, "cata_dvfs_transitions_total"), float64(ls.simTasks))
	granted := c1.sub(c0, "cata_accel_granted_total")
	m["rsm.accel_grant_ratio"] = ratio(granted, granted+c1.sub(c0, "cata_accel_denied_total"))
	m["rsm.reconfig_overhead_pct"] = median(ls.reconfig)
	m["opensys.shed_ratio"] = ratio(float64(ls.shed), float64(ls.arrived))
	m["opensys.deadline_miss_ratio"] = ratio(float64(ls.missed), float64(ls.arrived-ls.shed))
	hits := c1.sub(c0, "cata_cache_hits_total")
	m["batch.hit_ratio"] = ratio(hits, hits+c1.sub(c0, "cata_cache_misses_total"))

	// Shares of span time: the open-system schedule within its round,
	// and the service's layers within a request.
	dur, self := durByName(spans), selfByName(spans)
	pct := func(name, of string) float64 { return 100 * ratio(float64(self[name]), float64(dur[of])) }
	m["opensys.schedule_pct"] = pct("opensys.Schedule", "round")
	m["jobs.queue_pct"] = pct("jobs.queue", "request")
	m["jobs.run_pct"] = pct("jobs.run", "request")
	m["server.admit_pct"] = pct("server.admit", "request")
	m["server.notify_pct"] = pct("server.notify", "request")

	for _, l := range cpuLayers {
		m[l+".cpu_share"] = prof.share(prof.Leaf[l])
	}
	m["runtime.gc_cpu_share"] = prof.share(prof.GC)
	m["runtime.malloc_cpu_share"] = prof.share(prof.Malloc)

	m["bench.gen_late_p99_pct"] = 100 * ratio(plain.lateness(99), plain.latency(99, false).Value)
	// Unscaled: the profiler slows the calibration kernel as it slows the
	// workload, so scaled numbers would hide the tracing overhead.
	m["bench.trace_overhead_pct"] = 100 * (ratio(median(plain.opsPerSec(false)), median(traced.opsPerSec(false))) - 1)
	return m
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// contractLine is the last line of a run's output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// report prints every metric of the run's set as "name value unit", the
// full result as one JSON line, and the contract line last. A traced run
// reports the per-layer metrics, an untraced one the end-to-end metrics.
func report(w io.Writer, res *result) error {
	defs := endToEnd
	if res.Trace {
		defs = perLayerDefs()
	}
	fmt.Fprintf(w, "# perfbench %s seed=%d trace=%v workers=%d nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		res.Workload, res.Seed, res.Trace, res.Machine.Workers, res.Machine.NProc, res.Machine.GOMAXPROCS, res.Machine.Go, res.Machine.CPU)
	out := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]map[string]any{}}
	for _, d := range defs {
		s := res.Metrics[d.Name]
		if s.N > 1 {
			fmt.Fprintf(w, "%-36s %14.6g %-6s q1=%.6g q3=%.6g n=%d\n", d.Name, s.Value, d.Unit, s.Q1, s.Q3, s.N)
		} else {
			fmt.Fprintf(w, "%-36s %14.6g %s\n", d.Name, s.Value, d.Unit)
		}
		out.Metrics[d.Name] = map[string]any{"value": s.Value, "unit": d.Unit}
	}
	for _, k := range sortedKeys(res.Detail) {
		fmt.Fprintf(w, "# detail %-28s %14.6g\n", k, res.Detail[k])
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "# problem: %s\n", p)
	}
	fmt.Fprintf(w, "# digest %s\n", res.Digest)
	for _, enc := range []any{res, out} {
		b, err := json.Marshal(enc)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}
