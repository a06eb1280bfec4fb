package rts

// Open-system mode: instead of one master thread creating tasks from a
// single Program (the closed-system model of the paper's experiments),
// whole task DAGs — jobs — arrive over simulated time and are injected
// into one shared running machine. The arrival schedule is computed by
// the caller (internal/opensys) before Run; the runtime's job here is
// admission, per-job dependence isolation, per-job barrier phasing, and
// the open-system termination condition.
//
// Everything in this file is reachable only when Config.Open is set:
// closed-system runs take none of these paths and their event streams
// stay bit-identical.

import (
	"fmt"

	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/tdg"
)

// OpenConfig turns a runtime into an open-system machine shared by
// arriving jobs. Config.Program must be nil when Open is set; the
// programs arrive through Runtime.Inject instead.
type OpenConfig struct {
	// MaxInSystem bounds concurrently in-system jobs: an arrival finding
	// the system full is shed (it never enters the TDG) and reported via
	// OnShed. Zero means unlimited admission.
	MaxInSystem int
	// OnAdmit, when non-nil, observes each admitted job at its arrival
	// time.
	OnAdmit func(jobID int, at sim.Time)
	// OnShed, when non-nil, observes each arrival dropped by the
	// MaxInSystem cap.
	OnShed func(jobID int, at sim.Time)
	// OnDone, when non-nil, observes each job completion with its arrival
	// and completion times (response time = done - arrived).
	OnDone func(jobID int, arrived, done sim.Time)
}

// openState is the runtime's open-mode bookkeeping, nil for closed runs.
type openState struct {
	cfg      OpenConfig
	pending  int // arrivals injected but not yet delivered by the engine
	inSystem int // admitted, not yet completed jobs
	taskJob  map[*tdg.Task]*openJob
	// nextToken allocates globally fresh dependence tokens: every job's
	// template tokens are remapped so jobs instantiated from the same
	// template never alias each other's data in the shared graph.
	nextToken tdg.Token
}

// openJob is one admitted job: a program template stepped through
// phase by phase. Consecutive tasks are submitted together at phase
// start (the whole sub-DAG enters the TDG; dependences pace execution);
// a barrier item ends the phase, and the next phase starts when every
// in-flight task of this job has completed.
type openJob struct {
	id      int
	prog    *program.Program
	next    int // next program item to process
	live    int // submitted-but-unfinished tasks of this job
	arrived sim.Time
	tokens  map[tdg.Token]tdg.Token // template token -> fresh global token
}

// Inject schedules one job arrival at the given simulated time. It must
// be called after New and before Run, on a runtime configured with
// Config.Open. Job IDs are caller-chosen and only echoed to callbacks.
func (r *Runtime) Inject(at sim.Time, jobID int, prog *program.Program) error {
	if r.open == nil {
		return fmt.Errorf("rts: Inject on a closed-system runtime")
	}
	if prog == nil {
		return fmt.Errorf("rts: Inject with nil program")
	}
	if err := prog.Validate(); err != nil {
		return err
	}
	if at < r.eng.Now() {
		// An arrival schedule that overflowed simulated time, e.g. from
		// a well-formed but vanishingly small arrival rate.
		return fmt.Errorf("rts: Inject of job %d at %v, before the current time %v", jobID, at, r.eng.Now())
	}
	r.open.pending++
	r.eng.At(at, func() { r.openArrive(jobID, prog) })
	return nil
}

// openArrive delivers one arrival: admit (and submit the first phase)
// or shed against the in-system cap.
func (r *Runtime) openArrive(jobID int, prog *program.Program) {
	o := r.open
	o.pending--
	now := r.eng.Now()
	if o.cfg.MaxInSystem > 0 && o.inSystem >= o.cfg.MaxInSystem {
		if o.cfg.OnShed != nil {
			o.cfg.OnShed(jobID, now)
		}
		// The last arrival may be shed while nothing is running — no task
		// completion would ever check the finish condition.
		if r.openFinished() {
			r.finish()
		}
		return
	}
	o.inSystem++
	if o.cfg.OnAdmit != nil {
		o.cfg.OnAdmit(jobID, now)
	}
	j := &openJob{
		id:      jobID,
		prog:    prog,
		arrived: now,
		tokens:  make(map[tdg.Token]tdg.Token),
	}
	r.openAdvance(j)
}

// openAdvance submits program items until the job blocks on a barrier
// with tasks still in flight, or runs out of items (job done once its
// last task completes).
func (r *Runtime) openAdvance(j *openJob) {
	for j.next < len(j.prog.Items) {
		it := j.prog.Items[j.next]
		if it.Barrier {
			if j.live > 0 {
				return // phase boundary: resume when this job drains
			}
			j.next++
			continue
		}
		j.next++
		r.openSubmit(j, it.Task)
	}
	if j.live == 0 {
		r.openJobDone(j)
	}
}

// openSubmit instantiates one template task for the job and submits it
// to the shared graph. This mirrors creatorStep's task creation but
// charges no creator cycles: arrivals are generated off-machine by the
// traffic source, not by a simulated master thread.
func (r *Runtime) openSubmit(j *openJob, spec *program.TaskSpec) {
	t := &tdg.Task{
		ID:          r.nextTaskID,
		Type:        spec.Type,
		CPUCycles:   spec.CPUCycles,
		MemTime:     spec.MemTime,
		IOTime:      spec.IOTime,
		Ins:         j.remap(r.open, spec.Ins),
		Outs:        j.remap(r.open, spec.Outs),
		SubmittedAt: r.eng.Now(),
		Core:        -1,
	}
	r.nextTaskID++
	if r.opts.RetainTasks {
		r.retained = append(r.retained, t)
	}
	r.open.taskJob[t] = j
	j.live++
	visited := r.graph.Submit(t) // may fire onTaskReady synchronously
	r.submitVisited += int64(visited)
}

// remap translates a template's dependence tokens into the job's fresh
// global tokens, allocating on first sight.
func (j *openJob) remap(o *openState, ts []tdg.Token) []tdg.Token {
	if len(ts) == 0 {
		return nil
	}
	out := make([]tdg.Token, len(ts))
	for i, tok := range ts {
		nt, ok := j.tokens[tok]
		if !ok {
			nt = o.nextToken
			o.nextToken++
			j.tokens[tok] = nt
		}
		out[i] = nt
	}
	return out
}

// openTaskDone accounts one task completion against its job, advancing
// the job past a drained phase boundary (or to completion).
func (r *Runtime) openTaskDone(t *tdg.Task) {
	o := r.open
	j := o.taskJob[t]
	delete(o.taskJob, t)
	j.live--
	if j.live == 0 {
		r.openAdvance(j)
	}
}

// openJobDone retires a completed job.
func (r *Runtime) openJobDone(j *openJob) {
	o := r.open
	o.inSystem--
	if o.cfg.OnDone != nil {
		o.cfg.OnDone(j.id, j.arrived, r.eng.Now())
	}
}

// openFinished is the open-system termination condition: every injected
// arrival has been delivered, no job is in the system, and the shared
// graph has drained.
func (r *Runtime) openFinished() bool {
	o := r.open
	return o.pending == 0 && o.inSystem == 0 && r.graph.AllDone()
}
