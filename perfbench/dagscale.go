package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"cata"
	"cata/internal/workloads"
)

// dagScale is the per-task scaling regime: three synthetic DAGs of about
// 16k tasks each — wide layers, a deep fork-join with 1,024-task phases,
// a 2-D wavefront — under FIFO, CATS+BL, CATA and AMTHA at 16 fast
// cores, one cata.RunBatch of the twelve runs per round. Ready queues
// reach 1,024 deep, CATS+BL walks bottom levels over wide layers, AMTHA
// premaps every task and workloads.Build is a large share of the layered
// run, so tdg, sched, policies and the generators show here and not in
// figures.
type dagScale struct {
	specs    []string
	policies []cata.Policy
	tasks    map[string]int64
}

func newDagScale(tiny bool) *dagScale {
	if tiny {
		return &dagScale{specs: []string{"layered:width=16,depth=8,fanin=4", "forkjoin:width=32,phases=2", "wavefront:rows=8,cols=8"}}
	}
	return &dagScale{specs: []string{"layered:width=256,depth=64,fanin=4", "forkjoin:width=1024,phases=16", "wavefront:rows=128,cols=128"}}
}

const dagFast = 16

func (d *dagScale) prepare(*env) error { return nil }
func (d *dagScale) teardown() error    { return nil }

// setup resolves the policies and builds each DAG once, for the task
// counts every run is checked against.
func (d *dagScale) setup(e *env) error {
	d.policies = d.policies[:0]
	for _, s := range []string{"FIFO", "CATS+BL", "CATA", "AMTHA"} {
		p, err := cata.ParsePolicy(s)
		if err != nil {
			return err
		}
		d.policies = append(d.policies, p)
	}
	d.tasks = map[string]int64{}
	for _, s := range d.specs {
		p, err := workloads.Build(s, e.seed, 1.0)
		if err != nil {
			return err
		}
		d.tasks[s] = int64(p.Tasks())
	}
	return nil
}

func (d *dagScale) configs(seed uint64) []cata.RunConfig {
	var cfgs []cata.RunConfig
	for _, s := range d.specs {
		for _, p := range d.policies {
			cfgs = append(cfgs, cata.RunConfig{Workload: s, Policy: p, FastCores: dagFast, Seed: seed})
		}
	}
	return cfgs
}

// batch runs the round's twelve configurations on par workers and
// checks them, returning the digest of their makespans, task counts and
// energy bits.
func (d *dagScale) batch(seed uint64, par int, ls *layerStats) (round, error) {
	cfgs := d.configs(seed)
	rd := round{kind: bothRound, ops: len(cfgs)}
	var host time.Duration
	probe := ls.probe()
	start := time.Now()
	rs, err := cata.RunBatch(context.Background(), cfgs, cata.BatchOptions{
		Parallelism: par,
		OnProgress: func(p cata.BatchProgress) {
			if p.Index >= 0 {
				rd.lat = append(rd.lat, p.Elapsed)
				host += p.Elapsed
			}
		},
	})
	rd.elapsed = time.Since(start)
	probe.done(len(cfgs), host, 0)
	if err != nil {
		return rd, err
	}
	var sum []byte
	for i, r := range rs {
		if r.Err != nil {
			rd.failed++
			rd.problems = append(rd.problems, fmt.Sprintf("dag-scale %s/%s: %v", cfgs[i].Workload, cfgs[i].Policy, r.Err))
			continue
		}
		res := r.Result
		if want := d.tasks[cfgs[i].Workload]; res.TasksRun != want {
			rd.failed++
			rd.problems = append(rd.problems, fmt.Sprintf("dag-scale %s/%s ran %d tasks, want %d", cfgs[i].Workload, cfgs[i].Policy, res.TasksRun, want))
		}
		rd.tasks += res.TasksRun
		sum = fmt.Appendf(sum, "%s|%s|%d|%d|%016x\n", cfgs[i].Workload, cfgs[i].Policy, int64(res.Makespan), res.TasksRun, math.Float64bits(res.Joules))
		ls.simulated(res.TasksRun)
		ls.addRun(res.TasksRun, res.Inversions, res.ReconfigOverheadPct, cfgs[i], res)
	}
	rd.digest = digestOf(sum)
	return rd, nil
}

func (d *dagScale) warm(e *env) (string, error) {
	rd, err := d.batch(e.seed, 1, nil)
	if err != nil {
		return "", err
	}
	if len(rd.problems) > 0 {
		return "", fmt.Errorf("%v", rd.problems)
	}
	return rd.digest, nil
}

func (d *dagScale) measure(e *env, budget time.Duration, tr *tracer, ls *layerStats) (pass, error) {
	return loopRounds(budget, e.workers, func(r int) (round, error) {
		seed := e.seed + uint64(r)
		root := tr.begin("round", 0, "")
		defer tr.end(root)
		for _, s := range d.specs {
			if err := ls.build(tr, root, s, seed, 1.0); err != nil {
				return round{}, err
			}
		}
		id := tr.begin("exp.Run", root, "")
		defer tr.end(id)
		return d.batch(seed, e.workers, ls)
	})
}

func (d *dagScale) verify(*env, *layerStats) ([]string, int, error) { return nil, 0, nil }
