package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"cata/internal/energy"
	"cata/internal/opensys"
	"cata/internal/program"
	"cata/internal/rts"
	"cata/internal/sched"
	"cata/internal/sim"
	"cata/internal/stats"
	"cata/internal/trace"
	"cata/internal/workloads"
)

// RunSpec identifies one simulation: a workload under a policy with a
// fast-core budget on a machine.
type RunSpec struct {
	// Workload is a workload spec resolved against the registry in
	// internal/workloads: a bare name ("dedup") or a parameterized spec
	// ("layered:seed=7,width=16,depth=32"). Ignored when Program is set.
	Workload string
	// Program, when non-nil, is run directly instead of a named workload
	// (the public API's custom-workload path).
	Program *program.Program
	// Policy is the system configuration.
	Policy Policy
	// FastCores is the power budget: the number of statically fast cores
	// (FIFO/CATS) or the maximum simultaneously accelerated cores
	// (CATA/RSU/TurboMode). The paper sweeps 8, 16, 24 on 32 cores.
	FastCores int
	// Cores is the machine size (default 32).
	Cores int
	// Seed drives all workload randomness (default 42).
	Seed uint64
	// Scale in (0,1] shrinks workload task counts (default 1.0).
	Scale float64
	// MaxSimTime aborts runaway simulations (default 20 s simulated).
	MaxSimTime sim.Time
	// TransitionLatency overrides the DVFS transition latency (0 keeps
	// the Table I 25 µs). Used by the latency-sensitivity ablation.
	TransitionLatency sim.Time
	// Arrivals, when non-empty, switches the run to open-system traffic
	// mode: the workload becomes a per-job DAG template instantiated by
	// the arrival process the spec describes (see internal/opensys for
	// the parameters, e.g. "poisson:lambda=2000,jobs=40,deadline=5ms").
	// The harvested Measurement carries the response-time Report in
	// Open; Makespan is the time the last job drained.
	Arrivals string
	// Trace, when non-nil, receives the run's full flight recording as a
	// Chrome/Perfetto trace JSON document: task spans, per-core frequency
	// and power-vs-budget counter tracks, reconfiguration instants and
	// dependence flow arrows. Requesting a trace attaches the probe
	// recorder; results are bit-identical with and without it.
	Trace io.Writer
	// Timeline, when non-nil, receives a per-core ASCII Gantt chart.
	Timeline io.Writer
	// TimelineWidth is the ASCII chart width in columns (default 100).
	TimelineWidth int
}

// withDefaults fills zero fields.
func (s RunSpec) withDefaults() RunSpec {
	if s.Policy == "" {
		s.Policy = FIFO
	}
	if s.Cores == 0 {
		s.Cores = 32
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Scale == 0 {
		s.Scale = 1.0
	}
	if s.MaxSimTime == 0 {
		s.MaxSimTime = 20 * sim.Second
	}
	return s
}

// MaxCores is the largest machine a run may have: 32 times the paper's
// 32 cores. The machine, the runtime and every reconfiguration module
// keep per-core state, allocated before the first event, so the ceiling
// bounds what one request can make a worker allocate.
const MaxCores = 1024

// CheckSizes rejects machine sizes no run can have, after defaults are
// applied: a core count that is negative or above MaxCores, a fast-core
// budget outside [0, cores], a scale outside (0, 1] (NaN included) and
// a negative transition latency. Run applies it before building
// anything; catad applies it at admission through
// cata.RunConfig.Validate. The errors name the wire fields.
func (s RunSpec) CheckSizes() error {
	s = s.withDefaults()
	switch {
	case s.Cores < 0 || s.Cores > MaxCores:
		return fmt.Errorf("cores %d out of range [0,%d]", s.Cores, MaxCores)
	case s.FastCores < 0 || s.FastCores > s.Cores:
		return fmt.Errorf("fast_cores %d out of range [0,%d]", s.FastCores, s.Cores)
	case !(s.Scale > 0 && s.Scale <= 1):
		return fmt.Errorf("scale %v out of range (0,1]", s.Scale)
	case s.TransitionLatency < 0:
		return fmt.Errorf("transition_latency_ns %v is negative", s.TransitionLatency)
	}
	return nil
}

// String renders the spec as workload/policy/fast for logs and errors,
// with the arrival process appended for open-system runs.
func (s RunSpec) String() string {
	if s.Arrivals != "" {
		return fmt.Sprintf("%s/%v/fast=%d/%s", s.Workload, s.Policy, s.FastCores, s.Arrivals)
	}
	return fmt.Sprintf("%s/%v/fast=%d", s.Workload, s.Policy, s.FastCores)
}

// runSpecJSON is the JSON-portable subset of RunSpec: everything except
// the in-memory Program and the Trace/Timeline writers, which cannot
// round-trip through a result cache. Specs carrying those fields are
// never cached (see cacheKey).
type runSpecJSON struct {
	Workload          string   `json:"workload,omitempty"`
	Policy            Policy   `json:"policy"`
	FastCores         int      `json:"fast_cores"`
	Cores             int      `json:"cores"`
	Seed              uint64   `json:"seed"`
	Scale             float64  `json:"scale"`
	MaxSimTime        sim.Time `json:"max_sim_time"`
	TransitionLatency sim.Time `json:"transition_latency,omitempty"`
	// Arrivals is omitempty so closed-system specs keep the cache keys
	// they had before open-system mode existed.
	Arrivals string `json:"arrivals,omitempty"`
}

// MarshalJSON encodes the portable fields of the spec.
func (s RunSpec) MarshalJSON() ([]byte, error) {
	return json.Marshal(runSpecJSON{
		Workload:          s.Workload,
		Policy:            s.Policy,
		FastCores:         s.FastCores,
		Cores:             s.Cores,
		Seed:              s.Seed,
		Scale:             s.Scale,
		MaxSimTime:        s.MaxSimTime,
		TransitionLatency: s.TransitionLatency,
		Arrivals:          s.Arrivals,
	})
}

// UnmarshalJSON decodes the portable fields of the spec.
func (s *RunSpec) UnmarshalJSON(b []byte) error {
	var j runSpecJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*s = RunSpec{
		Workload:          j.Workload,
		Policy:            j.Policy,
		FastCores:         j.FastCores,
		Cores:             j.Cores,
		Seed:              j.Seed,
		Scale:             j.Scale,
		MaxSimTime:        j.MaxSimTime,
		TransitionLatency: j.TransitionLatency,
		Arrivals:          j.Arrivals,
	}
	return nil
}

// Measurement is the harvested result of one run.
type Measurement struct {
	Spec     RunSpec
	Makespan sim.Time
	Joules   float64
	EDP      float64 // joule-seconds
	TasksRun int64

	// Scheduling behavior.
	CriticalTasks int64
	Inversions    int64 // critical tasks dispatched to slow cores
	Steals        int64 // slow-core HPRQ steals (CATS)
	StaticBinding int64 // fast core idled while critical ran slow (§II-C)

	// DVFS / reconfiguration behavior (§V-C): the machine's physical
	// V/f transitions, then what the policy's modules report.
	Transitions int64
	stats.Reconfig

	// AvgUtilization is mean busy-time/makespan across cores in [0,1].
	AvgUtilization float64

	// Open carries the open-system traffic report (response-time
	// percentiles, deadline misses, shed counts); nil for closed runs.
	Open *opensys.Report
}

// programHolder carries the run's program — or, for open-system runs,
// the arrival-mode configuration that replaces it — into buildRig.
type programHolder struct {
	prog *program.Program
	// Open-system fields, all zero for closed runs.
	open *rts.OpenConfig
	// inject schedules the arrival events on the built runtime.
	inject func(*rts.Runtime) error
	// collect produces the open-system report after the run.
	collect *opensys.Collector
	// extraSimTime extends MaxSimTime by the arrival horizon so the
	// abort guard bounds drain time after the last arrival, not the
	// whole stream.
	extraSimTime sim.Time
}

// Run executes one simulation and harvests its measurement.
func Run(spec RunSpec) (Measurement, error) { return run(spec, nil) }

// run is Run with a closed run's workload program taken from shared, a
// sweep's shared build of it, when shared is non-nil.
func run(spec RunSpec, shared *sharedProgram) (Measurement, error) {
	spec = spec.withDefaults()
	if err := spec.CheckSizes(); err != nil {
		return Measurement{}, fmt.Errorf("%v: %w", spec, err)
	}
	if spec.Arrivals != "" {
		return runOpen(spec)
	}
	prog := spec.Program
	if prog == nil {
		var err error
		if shared != nil {
			prog, err = shared.get(spec)
		} else {
			prog, err = workloads.Build(spec.Workload, spec.Seed, spec.Scale)
		}
		if err != nil {
			return Measurement{}, err
		}
	}
	return runWith(spec, programHolder{prog: prog})
}

// runWith builds the rig for one (possibly open-system) run, executes
// it, and harvests the measurement.
func runWith(spec RunSpec, holder programHolder) (Measurement, error) {
	rig, err := buildRig(spec, holder)
	if err != nil {
		return Measurement{}, err
	}
	if holder.inject != nil {
		if err := holder.inject(rig.runtime); err != nil {
			return Measurement{}, fmt.Errorf("%v: %w", spec, err)
		}
	}
	wallStart := time.Now()
	res, err := rig.runtime.Run()
	wallElapsed := time.Since(wallStart)
	if err != nil {
		return Measurement{}, fmt.Errorf("%v: %w", spec, err)
	}
	joules := rig.mach.FinishEnergy()
	if spec.Trace != nil {
		workload := spec.Workload
		if workload == "" && holder.prog != nil {
			workload = holder.prog.Name
		}
		rec := &trace.Recording{
			Workload:    workload,
			Policy:      spec.Policy.String(),
			Cores:       rig.mach.Cores(),
			Fast:        rig.fast,
			Budget:      spec.FastCores,
			BudgetWatts: budgetWatts(spec, rig),
			Tasks:       rig.runtime.Tasks(),
			Probe:       rig.probe,
		}
		if err := trace.WriteRecording(spec.Trace, rec); err != nil {
			return Measurement{}, fmt.Errorf("%v: writing trace: %w", spec, err)
		}
	}
	if spec.Timeline != nil {
		width := spec.TimelineWidth
		if width == 0 {
			width = 100
		}
		if err := trace.RenderASCII(spec.Timeline, rig.runtime.Tasks(), width); err != nil {
			return Measurement{}, fmt.Errorf("%v: rendering timeline: %w", spec, err)
		}
	}

	m := Measurement{
		Spec:          spec,
		Makespan:      res.Makespan,
		Joules:        joules,
		EDP:           energy.EDP(joules, res.Makespan),
		TasksRun:      res.TasksRun,
		CriticalTasks: res.CriticalTasks,
		StaticBinding: res.StaticBindingEvents,
		Transitions:   rig.mach.DVFS.Transitions(),
	}
	if st := schedStats(rig); st != nil {
		m.Inversions = st.CriticalToSlow
		m.Steals = st.Steals
	}
	for _, mod := range rig.modules {
		m.Reconfig = mod.Harvest(m.Reconfig, res.Makespan)
	}
	if res.Makespan > 0 {
		var busy sim.Time
		for i := 0; i < rig.mach.Cores(); i++ {
			busy += rig.mach.Core(i).BusyTime()
		}
		m.AvgUtilization = float64(busy) / (float64(res.Makespan) * float64(rig.mach.Cores()))
	}
	if holder.collect != nil {
		rep := holder.collect.Report(joules)
		m.Open = &rep
	}
	observeRun(m, rig.eng.Fired(), wallElapsed)
	return m, nil
}

// budgetWatts computes the run's power-budget reference for the trace's
// power counter track: the chip power with the budgeted number of cores
// at the fast level in C0-active, the rest slow, plus the uncore term.
// Each product is rounded before the sum, so no architecture fuses one
// into a multiply-add.
func budgetWatts(spec RunSpec, r *rig) float64 {
	cfg := &r.mach.Cfg
	return float64(float64(spec.FastCores)*cfg.Power.CoreWatts(cfg.FastLevel, energy.C0Active)) +
		float64(float64(spec.Cores-spec.FastCores)*cfg.Power.CoreWatts(cfg.SlowLevel, energy.C0Active)) +
		float64(cfg.Power.UncoreWattsPerCore*float64(spec.Cores))
}

// schedStats extracts dispatch statistics from whichever scheduler ran.
func schedStats(r *rig) *sched.Stats {
	if s, ok := r.runtime.Scheduler().(interface{ Stats() *sched.Stats }); ok {
		return s.Stats()
	}
	return nil
}

// measurements converts sweep results to plain measurements, failing
// fast on the first per-spec error in spec order. (Run already names
// the failing spec in its errors, so none is added here.)
func measurements(rs []RunResult) ([]Measurement, error) {
	ms := make([]Measurement, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			return nil, r.Err
		}
		ms[i] = r.Measurement
	}
	return ms, nil
}
