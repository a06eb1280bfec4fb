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
	holder, err := openHolder(spec)
	if err != nil {
		return Measurement{}, err
	}
	return runWith(spec, holder)
}

// openHolder schedules the spec's arrival stream and wires it, the
// per-job program builds and the report collector into the runtime's
// open-system configuration.
func openHolder(spec RunSpec) (programHolder, error) {
	proc, err := opensys.Parse(spec.Arrivals)
	if err != nil {
		return programHolder{}, fmt.Errorf("%v: %w", spec, err)
	}
	schedule := proc.Schedule(spec.Seed)

	col := opensys.NewCollector(proc)
	var lastArrival sim.Time
	if len(schedule) > 0 {
		lastArrival = schedule[len(schedule)-1]
	}
	// Each job's DAG is built when it is admitted: a custom Program is
	// shared across jobs (the runtime isolates their dependences), while
	// a registry workload is instantiated per job with an independent
	// seed stream, so the stream carries DAG-level variation too.
	build := func(job int) (*program.Program, error) {
		if spec.Program != nil {
			return spec.Program, nil
		}
		return workloads.Build(spec.Workload, opensys.JobSeed(spec.Seed, job), spec.Scale)
	}
	return programHolder{
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
				if err := r.Inject(at, i, build); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}
