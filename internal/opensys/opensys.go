// Package opensys is the open-system traffic layer: seeded arrival
// processes that instantiate workload DAGs as jobs arriving over
// simulated time, and the response-time collector that turns job
// completions into latency distributions (p50/p99/p999), deadline-miss
// accounting and shed counts. The closed-system harness asks "how fast
// does one program run"; this package asks the service question the
// ROADMAP's north star needs — what tail latency does a stream of jobs
// see on a shared machine under each policy.
//
// An arrival process is written as a spec string in the grammar every
// registry shares (internal/spec):
//
//	poisson:lambda=2000                 Poisson arrivals, λ jobs/second
//	fixed:interval=500us                fixed interarrival gap
//
// with the common parameters jobs=N (arrival count, default 16),
// deadline=D (per-job response-time SLO, e.g. 5ms; 0 disables),
// cap=N (max jobs in system; arrivals beyond it are shed; 0 means
// unlimited) and window=D (report per-window percentiles at this
// granularity; 0 disables). Durations use Go duration syntax. Each kind
// accepts only its own rate parameter.
// All randomness flows from internal/xrand streams, so a (spec, seed)
// pair always yields the identical arrival schedule.
package opensys

import (
	"fmt"
	"strings"
	"time"

	"cata/internal/sim"
	"cata/internal/spec"
	"cata/internal/xrand"
)

// Arrival process kinds.
const (
	// KindPoisson draws exponentially distributed interarrival gaps.
	KindPoisson = "poisson"
	// KindFixed spaces arrivals by a constant interval.
	KindFixed = "fixed"
)

// Process is a parsed arrival-process spec.
type Process struct {
	// Kind is KindPoisson or KindFixed.
	Kind string
	// Lambda is the Poisson arrival rate in jobs per second (> 0 for
	// KindPoisson, unused otherwise).
	Lambda float64
	// Interval is the fixed interarrival gap (> 0 for KindFixed).
	Interval sim.Time
	// Jobs is the number of arrivals to generate.
	Jobs int
	// Deadline is the per-job response-time SLO; 0 disables deadline
	// accounting. Missing the deadline never aborts a job — it is an
	// observation, not an enforcement.
	Deadline sim.Time
	// Cap bounds concurrently in-system jobs; arrivals finding the
	// system full are shed. 0 means unlimited.
	Cap int
	// Window, when > 0, buckets completions into fixed windows of this
	// width and reports per-window percentiles.
	Window sim.Time
}

// commonDocs declare the parameters every process kind accepts.
var commonDocs = []spec.ParamDoc{
	{Key: "jobs", Kind: spec.Int, Default: "16", Help: "number of arrivals", Min: 1},
	{Key: "deadline", Kind: spec.Duration, Default: "0 (off)", Help: "per-job response-time SLO"},
	{Key: "cap", Kind: spec.Int, Default: "0 (unlimited)", Help: "max in-system jobs; arrivals beyond it are shed"},
	{Key: "window", Kind: spec.Duration, Default: "0 (off)", Help: "per-window percentile granularity"},
}

// kindDocs declare each process kind's own, required rate parameter.
var kindDocs = map[string][]spec.ParamDoc{
	KindPoisson: {{Key: "lambda", Kind: spec.Float, Default: "(required)", Help: "arrival rate in jobs/second",
		Required: true, MinExclusive: true}},
	KindFixed: {{Key: "interval", Kind: spec.Duration, Default: "(required)", Help: "interarrival gap",
		Required: true, MinExclusive: true}},
}

// Parse parses an arrival-process spec string. The error is a
// *spec.Error naming the offending parameter when one is at fault.
func Parse(s string) (Process, error) {
	sp, err := spec.Parse("arrivals", s)
	if err != nil {
		return Process{}, err
	}
	docs, ok := kindDocs[sp.Name]
	if !ok {
		return Process{}, sp.Errorf("", "unknown arrival process (want %s or %s)", KindPoisson, KindFixed)
	}
	if err := sp.Check(docs, commonDocs); err != nil {
		return Process{}, err
	}
	p := sp.Params
	return Process{
		Kind:     sp.Name,
		Lambda:   p.Float("lambda", 0),
		Interval: simTime(p.Duration("interval", 0)),
		Jobs:     p.Int("jobs", 16),
		Deadline: simTime(p.Duration("deadline", 0)),
		Cap:      p.Int("cap", 0),
		Window:   simTime(p.Duration("window", 0)),
	}, nil
}

// simTime converts a wall-clock duration to simulated time.
func simTime(d time.Duration) sim.Time {
	return sim.Time(d.Nanoseconds()) * sim.Nanosecond
}

// String renders the process in canonical spec form: kind, then the
// non-default parameters in fixed order. Parse(p.String()) reproduces p.
func (p Process) String() string {
	var parts []string
	switch p.Kind {
	case KindPoisson:
		parts = append(parts, fmt.Sprintf("lambda=%g", p.Lambda))
	case KindFixed:
		parts = append(parts, fmt.Sprintf("interval=%s", durationSpec(p.Interval)))
	}
	parts = append(parts, fmt.Sprintf("jobs=%d", p.Jobs))
	if p.Deadline > 0 {
		parts = append(parts, fmt.Sprintf("deadline=%s", durationSpec(p.Deadline)))
	}
	if p.Cap > 0 {
		parts = append(parts, fmt.Sprintf("cap=%d", p.Cap))
	}
	if p.Window > 0 {
		parts = append(parts, fmt.Sprintf("window=%s", durationSpec(p.Window)))
	}
	return p.Kind + ":" + strings.Join(parts, ",")
}

// durationSpec renders t as a Go duration string parseable by Parse.
func durationSpec(t sim.Time) string {
	return time.Duration(int64(t) / int64(sim.Nanosecond)).String()
}

// Schedule derives the deterministic arrival schedule for the process:
// Jobs absolute arrival times in nondecreasing order. The same (p, seed)
// pair always returns the identical slice; the stream is independent of
// every other consumer of the seed.
func (p Process) Schedule(seed uint64) []sim.Time {
	times := make([]sim.Time, p.Jobs)
	switch p.Kind {
	case KindFixed:
		for i := range times {
			times[i] = sim.Time(i) * p.Interval
		}
	case KindPoisson:
		rng := xrand.New(seed).Stream("opensys.arrivals")
		meanGapPs := float64(sim.Second) / p.Lambda
		var at sim.Time
		for i := range times {
			at += sim.Time(rng.Exp(meanGapPs))
			times[i] = at
		}
	}
	return times
}

// JobSeed derives the workload seed for one job of the stream: every
// job gets an independent sub-stream of the run seed, so per-job DAG
// instances differ while the whole stream stays reproducible.
func JobSeed(seed uint64, job int) uint64 {
	return xrand.New(seed).Stream(fmt.Sprintf("opensys.job.%d", job)).Uint64()
}
