package exp

// Open-system run mode: RunSpec.Arrivals selects an arrival process
// (internal/opensys) that instantiates the spec's workload as per-job
// DAG templates and injects them into one shared machine over simulated
// time. The harvested Measurement carries the response-time Report.

import (
	"fmt"

	"cata/internal/opensys"
	"cata/internal/program"
	"cata/internal/rts"
	"cata/internal/sim"
	"cata/internal/workloads"
)

// runOpen executes one open-system traffic run. spec has defaults
// applied.
func runOpen(spec RunSpec) (Measurement, error) {
	proc, err := opensys.Parse(spec.Arrivals)
	if err != nil {
		return Measurement{}, fmt.Errorf("%v: %w", spec, err)
	}
	schedule := proc.Schedule(spec.Seed)

	// Per-job DAG templates: a custom Program is shared across jobs
	// (the runtime isolates their dependences), while registry workloads
	// are instantiated once per job with an independent seed stream so
	// the stream carries DAG-level variation too.
	progs := make([]*program.Program, proc.Jobs)
	if spec.Program != nil {
		for i := range progs {
			progs[i] = spec.Program
		}
	} else {
		for i := range progs {
			p, err := workloads.Build(spec.Workload, opensys.JobSeed(spec.Seed, i), spec.Scale)
			if err != nil {
				return Measurement{}, fmt.Errorf("%v: job %d: %w", spec, i, err)
			}
			progs[i] = p
		}
	}

	col := opensys.NewCollector(proc)
	var lastArrival sim.Time
	if len(schedule) > 0 {
		lastArrival = schedule[len(schedule)-1]
	}
	holder := programHolder{
		open: &rts.OpenConfig{
			MaxInSystem: proc.Cap,
			OnAdmit:     col.Admit,
			OnShed: func(jobID int, at sim.Time) {
				col.Shed(jobID, at)
				observeOpenShed()
			},
			OnDone: func(jobID int, arrived, done sim.Time) {
				col.Done(jobID, arrived, done)
				observeOpenResponse(done - arrived)
			},
		},
		collect:      col,
		extraSimTime: lastArrival,
		inject: func(r *rts.Runtime) error {
			for i, at := range schedule {
				if err := r.Inject(at, i, progs[i]); err != nil {
					return err
				}
			}
			return nil
		},
	}
	return runWith(spec, holder)
}
