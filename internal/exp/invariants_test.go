package exp

// Cross-policy invariant suite: every registry workload × all eight
// policies × three seeds, checking the properties no scheduling policy
// may violate regardless of how aggressively the simulator's hot paths
// are optimized:
//
//   1. no task starts before every dependence predecessor finished;
//   2. the makespan is never below the critical-path lower bound
//      (longest dependence chain at the fastest operating point);
//   3. TasksRun equals the submitted graph size;
//   4. repeating a run with the same seed is byte-identical.

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"cata/internal/energy"
	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/tdg"
	"cata/internal/workloads"
)

type energyLevel = energy.Level

// invariantWorkloads returns every registry entry that can be built
// without an external file, as parameterless specs.
func invariantWorkloads() []string {
	var names []string
	for _, e := range workloads.List() {
		if !e.FileBacked {
			names = append(names, e.Name)
		}
	}
	return names
}

// retainedRun builds a rig with task retention forced on, runs it, and
// returns the rig plus the retained tasks in submission order.
func retainedRun(t *testing.T, spec RunSpec) (*rig, []*tdg.Task, sim.Time) {
	t.Helper()
	spec = spec.withDefaults()
	spec.Timeline = io.Discard // forces Options.RetainTasks in buildRig
	prog, err := workloads.Build(spec.Workload, spec.Seed, spec.Scale)
	if err != nil {
		t.Fatal(err)
	}
	r, err := buildRig(spec, programHolder{prog: prog})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.runtime.Run()
	if err != nil {
		t.Fatalf("%v: %v", spec, err)
	}
	tasks := r.runtime.Tasks()
	if res.TasksRun != int64(len(tasks)) {
		t.Errorf("%v: TasksRun %d != retained tasks %d", spec, res.TasksRun, len(tasks))
	}
	if got := int64(r.runtime.Graph().Submitted()); res.TasksRun != got {
		t.Errorf("%v: TasksRun %d != graph size %d", spec, res.TasksRun, got)
	}
	if prog.Tasks() != len(tasks) {
		t.Errorf("%v: program has %d tasks, ran %d", spec, prog.Tasks(), len(tasks))
	}
	return r, tasks, res.Makespan
}

// maxFreq returns the fastest operating point of the rig's power model.
func maxFreq(r *rig) sim.Hertz {
	var f sim.Hertz
	model := r.mach.Cfg.Power
	for l := 0; l < model.Levels(); l++ {
		if p := model.Point(energyLevel(l)); p.Freq > f {
			f = p.Freq
		}
	}
	return f
}

// checkDependenceOrder: a task may start only at or after the end of
// every predecessor.
func checkDependenceOrder(t *testing.T, spec RunSpec, tasks []*tdg.Task) {
	t.Helper()
	for _, task := range tasks {
		if task.State() != tdg.Done {
			t.Errorf("%v: task %d finished run in state %v", spec, task.ID, task.State())
			continue
		}
		for _, p := range task.Preds() {
			if task.StartedAt < p.EndedAt {
				t.Errorf("%v: task %d started at %v before predecessor %d ended at %v",
					spec, task.ID, task.StartedAt, p.ID, p.EndedAt)
			}
		}
	}
}

// criticalPathBound computes the longest dependence chain, costing every
// task at the fastest frequency with its full memory and IO time — a
// hard lower bound on any schedule's makespan.
func criticalPathBound(tasks []*tdg.Task, fastest sim.Hertz) sim.Time {
	// Tasks are in submission order and edges always point backward, so
	// one forward pass is a topological DP.
	finish := make(map[*tdg.Task]sim.Time, len(tasks))
	var bound sim.Time
	for _, task := range tasks {
		var start sim.Time
		for _, p := range task.Preds() {
			if f := finish[p]; f > start {
				start = f
			}
		}
		f := start + task.Duration(fastest) + task.IOTime
		finish[task] = f
		if f > bound {
			bound = f
		}
	}
	return bound
}

func TestCrossPolicyInvariants(t *testing.T) {
	seeds := []uint64{7, 42, 1337}
	policies := append(AllPolicies(), ExtensionPolicies()...)
	names := invariantWorkloads()
	if len(names) < 11 {
		t.Fatalf("registry shrank: %d buildable workloads", len(names))
	}
	if testing.Short() {
		names = names[:3]
		seeds = seeds[:1]
	}
	for _, w := range names {
		for _, policy := range policies {
			for _, seed := range seeds {
				spec := RunSpec{
					Workload: w, Policy: policy,
					FastCores: 8, Cores: 16, Seed: seed, Scale: 0.04,
				}
				r, tasks, makespan := retainedRun(t, spec)
				checkDependenceOrder(t, spec, tasks)
				if bound := criticalPathBound(tasks, maxFreq(r)); makespan < bound {
					t.Errorf("%v seed=%d: makespan %v below critical-path bound %v",
						spec, seed, makespan, bound)
				}
				if t.Failed() {
					return // one broken combination produces enough output
				}
			}
		}
	}
}

// TestSameSeedRunsAreByteIdentical: the full measurement of a run —
// makespan, energy, every counter — must be bit-equal when repeated with
// the same seed.
func TestSameSeedRunsAreByteIdentical(t *testing.T) {
	seeds := []uint64{7, 42, 1337}
	policies := append(AllPolicies(), ExtensionPolicies()...)
	names := invariantWorkloads()
	if testing.Short() {
		names = names[:3]
		seeds = seeds[:1]
	}
	for _, w := range names {
		for _, policy := range policies {
			for _, seed := range seeds {
				spec := RunSpec{
					Workload: w, Policy: policy,
					FastCores: 8, Cores: 16, Seed: seed, Scale: 0.04,
				}
				a, err := Run(spec)
				if err != nil {
					t.Fatalf("%v: %v", spec, err)
				}
				b, err := Run(spec)
				if err != nil {
					t.Fatalf("%v rerun: %v", spec, err)
				}
				ja, err := json.Marshal(a)
				if err != nil {
					t.Fatal(err)
				}
				jb, err := json.Marshal(b)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ja, jb) {
					t.Fatalf("%v seed=%d: reruns differ:\n%s\n%s", spec, seed, ja, jb)
				}
			}
		}
	}
}

// renameTokens returns a copy of prog whose dependence tokens are renamed
// by an injective map.
func renameTokens(prog *program.Program, rename func(tdg.Token) tdg.Token) *program.Program {
	out := &program.Program{Name: prog.Name}
	for _, it := range prog.Items {
		if it.Barrier {
			out.AddBarrier()
			continue
		}
		spec := *it.Task
		spec.Ins, spec.Outs = nil, nil
		for _, tok := range it.Task.Ins {
			spec.Ins = append(spec.Ins, rename(tok))
		}
		for _, tok := range it.Task.Outs {
			spec.Outs = append(spec.Outs, rename(tok))
		}
		out.AddTask(spec)
	}
	return out
}

// TestTokenRenamingInvariance: tokens only name data, so renaming them
// by an injective, sparse map (t ↦ t·2^40 + 7) leaves the full
// measurement byte-identical, closed and under fixed arrivals. The
// arrivals overlap two jobs of one template in the shared graph, shed
// some, and admit later jobs into the records and reused token maps of
// finished ones, whose data the graph has forgotten; the open runtime
// renumbers every job's tokens on first sight, so no template token
// value may leak into a result.
func TestTokenRenamingInvariance(t *testing.T) {
	rename := func(tok tdg.Token) tdg.Token { return tok<<40 + 7 }
	for _, w := range []string{"dedup", "fluidanimate", "pipeline", "forkjoin"} {
		for _, seed := range []uint64{7, 42} {
			prog, err := workloads.Build(w, seed, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			renamed := renameTokens(prog, rename)
			for _, policy := range []Policy{FIFO, CATA} {
				for _, arrivals := range []string{"", "fixed:interval=6ms,jobs=8,cap=2"} {
					spec := RunSpec{Policy: policy, FastCores: 8, Cores: 16, Seed: seed, Arrivals: arrivals}
					var out [2][]byte
					for i, p := range []*program.Program{prog, renamed} {
						spec.Program = p
						m, err := Run(spec)
						if err != nil {
							t.Fatalf("%s %v: %v", w, spec, err)
						}
						if out[i], err = json.Marshal(m); err != nil {
							t.Fatal(err)
						}
					}
					if !bytes.Equal(out[0], out[1]) {
						t.Errorf("%s seed=%d %v: renaming tokens changed the measurement:\n%s\n%s", w, seed, spec, out[0], out[1])
					}
				}
			}
		}
	}
}
