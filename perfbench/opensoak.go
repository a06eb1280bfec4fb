package main

import (
	"encoding/json"
	"fmt"
	"time"

	"cata"
	"cata/internal/opensys"
	"cata/internal/workloads"
)

// openSoak is the open-system soak: one cata.Run per round of a Poisson
// stream of small fork-join jobs injected into one shared machine under
// CATA. It is the only workload on the rts injection path and opensys,
// and heap work grows with the job count, so allocation per job shows
// here and nowhere else.
type openSoak struct {
	arrivals string

	jobs        int
	tasksPerJob int64
}

// soakWorkload is the per-job DAG template; every job is instantiated
// with its own seed stream.
const soakWorkload = "forkjoin:width=16,phases=2,dur=200"

func newOpenSoak(tiny bool) *openSoak {
	if tiny {
		return &openSoak{arrivals: "poisson:lambda=3000,jobs=50,deadline=2ms,cap=64,window=5ms"}
	}
	return &openSoak{arrivals: "poisson:lambda=3000,jobs=2500,deadline=2ms,cap=64,window=500ms"}
}

func (o *openSoak) prepare(*env) error { return nil }
func (o *openSoak) teardown() error    { return nil }

// setup parses and schedules the arrival stream and builds every job's
// DAG as the run will, for the per-job task count the rounds are checked
// against.
func (o *openSoak) setup(e *env) error {
	if _, err := cata.ParsePolicy(string(cata.PolicyCATA)); err != nil {
		return err
	}
	proc, err := opensys.Parse(o.arrivals)
	if err != nil {
		return err
	}
	o.jobs = len(proc.Schedule(e.seed))
	o.tasksPerJob = 0
	for j := 0; j < o.jobs; j++ {
		p, err := workloads.Build(soakWorkload, opensys.JobSeed(e.seed, j), 1.0)
		if err != nil {
			return err
		}
		switch n := int64(p.Tasks()); {
		case j == 0:
			o.tasksPerJob = n
		case n != o.tasksPerJob:
			return fmt.Errorf("open-soak: job %d has %d tasks, job 0 has %d", j, n, o.tasksPerJob)
		}
	}
	return nil
}

// soak runs one round's stream and checks its accounting, returning the
// digest of the whole result.
func (o *openSoak) soak(seed uint64, ls *layerStats) round {
	rd := round{kind: bothRound}
	probe := ls.probe()
	start := time.Now()
	res, err := cata.Run(cata.RunConfig{Workload: soakWorkload, Policy: cata.PolicyCATA, FastCores: 16, Seed: seed, Arrivals: o.arrivals})
	rd.elapsed = time.Since(start)
	rd.lat = []time.Duration{rd.elapsed}
	rd.ops = o.jobs
	if err != nil {
		rd.failed = rd.ops
		rd.problems = append(rd.problems, fmt.Sprintf("open-soak seed %d: %v", seed, err))
		return rd
	}
	op := res.Open
	if op == nil {
		rd.failed = rd.ops
		rd.problems = append(rd.problems, "open-soak: result carries no open-system report")
		return rd
	}
	probe.done(1, 0, op.JobsArrived)
	rd.tasks = res.TasksRun
	switch {
	case op.JobsArrived != int64(o.jobs) || op.JobsCompleted+op.JobsShed != op.JobsArrived:
		rd.problems = append(rd.problems, fmt.Sprintf("open-soak: %d arrived, %d completed, %d shed; want %d arrivals all accounted for",
			op.JobsArrived, op.JobsCompleted, op.JobsShed, o.jobs))
	case res.TasksRun != op.JobsCompleted*o.tasksPerJob:
		rd.problems = append(rd.problems, fmt.Sprintf("open-soak: %d tasks ran, want %d jobs × %d", res.TasksRun, op.JobsCompleted, o.tasksPerJob))
	}
	if len(rd.problems) > 0 {
		rd.failed = rd.ops
		return rd
	}
	b, err := json.Marshal(res)
	if err != nil {
		rd.problems = append(rd.problems, err.Error())
		return rd
	}
	rd.digest = digestOf(b)
	ls.simulated(res.TasksRun)
	ls.addRun(res.TasksRun, res.Inversions, res.ReconfigOverheadPct, seed, res)
	if ls != nil {
		ls.mu.Lock()
		ls.arrived += op.JobsArrived
		ls.shed += op.JobsShed
		ls.missed += op.DeadlineMissed
		ls.mu.Unlock()
	}
	return rd
}

func (o *openSoak) warm(e *env) (string, error) {
	rd := o.soak(e.seed, nil)
	if len(rd.problems) > 0 {
		return "", fmt.Errorf("%v", rd.problems)
	}
	return rd.digest, nil
}

func (o *openSoak) measure(e *env, budget time.Duration, tr *tracer, ls *layerStats) (pass, error) {
	return loopRounds(budget, 1, func(r int) (round, error) {
		seed := e.seed + uint64(r)
		root := tr.begin("round", 0, "")
		defer tr.end(root)
		if tr != nil {
			id := tr.begin("opensys.Schedule", root, "")
			proc, err := opensys.Parse(o.arrivals)
			if err == nil && len(proc.Schedule(seed)) != o.jobs {
				err = fmt.Errorf("open-soak: schedule of seed %d has the wrong job count", seed)
			}
			tr.end(id)
			if err != nil {
				return round{}, err
			}
		}
		if err := ls.build(tr, root, soakWorkload, opensys.JobSeed(seed, 0), 1.0); err != nil {
			return round{}, err
		}
		id := tr.begin("exp.Run", root, "")
		defer tr.end(id)
		return o.soak(seed, ls), nil
	})
}

func (o *openSoak) verify(*env, *layerStats) ([]string, int, error) { return nil, 0, nil }
