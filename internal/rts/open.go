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
	"errors"
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
	// jobs is the job table, indexed by tdg.Task.Job; free lists the
	// slots of completed jobs, which the next admissions reuse. The table
	// grows to the peak number of jobs in the system, no further.
	jobs []*openJob
	free []int
	// nextToken allocates globally fresh dependence tokens: every job's
	// template tokens are remapped so jobs instantiated from the same
	// template never alias each other's data in the shared graph.
	nextToken tdg.Token
	// err is a failed admission; it stops the engine and Run returns it.
	err error
}

// openJob is one admitted job: a program template stepped through
// phase by phase. Consecutive tasks are submitted together at phase
// start (the whole sub-DAG enters the TDG; dependences pace execution);
// a barrier item ends the phase, and the next phase starts when every
// in-flight task of this job has completed. A completed job's record
// is reused, maps and lists emptied, by a later admission. Its task
// array, token array and edge store are allocated at admission and
// dropped at completion, never handed to the next job: a store shared
// by jobs would chain every finished job to a live one.
type openJob struct {
	slot    int // index in openState.jobs
	id      int
	prog    *program.Program
	next    int // next program item to process
	live    int // submitted-but-unfinished tasks of this job
	arrived sim.Time
	// tokens maps template tokens to fresh global ones on first sight,
	// and fresh lists the global ones in that order, for Forget.
	tokens map[tdg.Token]tdg.Token
	fresh  []tdg.Token
	// toks is the unused rest of the job's one backing array, from which
	// each task's remapped Ins and Outs are cut.
	toks []tdg.Token
	// tasks is the unused rest of the job's task array, one entry per
	// program task; store holds the tasks' edge lists and data records.
	tasks []tdg.Task
	store tdg.Store
}

// Inject schedules the arrival of job jobID at the given simulated
// time. It must be called after New and before Run, on a runtime
// configured with Config.Open. Job IDs are caller-chosen and only passed
// back to build and the OpenConfig callbacks.
//
// The job's program is built when the job is admitted: the runtime
// calls build(jobID) then, never for a shed arrival, and drops the
// program when the job completes, so only the programs of jobs in the
// system are held. A build error, or an invalid program, ends the run,
// and Run returns it.
func (r *Runtime) Inject(at sim.Time, jobID int, build func(jobID int) (*program.Program, error)) error {
	if r.open == nil {
		return fmt.Errorf("rts: Inject on a closed-system runtime")
	}
	if build == nil {
		return fmt.Errorf("rts: Inject of job %d without a program builder", jobID)
	}
	if at < r.eng.Now() {
		// An arrival schedule that overflowed simulated time, e.g. from
		// a well-formed but vanishingly small arrival rate.
		return fmt.Errorf("rts: Inject of job %d at %v, before the current time %v", jobID, at, r.eng.Now())
	}
	r.open.pending++
	r.eng.At(at, func() { r.openArrive(jobID, build) })
	return nil
}

// openArrive delivers one arrival: admit (build its program and submit
// the first phase) or shed against the in-system cap.
func (r *Runtime) openArrive(jobID int, build func(int) (*program.Program, error)) {
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
	prog, err := build(jobID)
	if err == nil && prog == nil {
		err = errors.New("no program")
	}
	if err == nil {
		err = prog.Validate()
	}
	if err != nil {
		o.err = fmt.Errorf("rts: job %d: %w", jobID, err)
		r.eng.Stop()
		return
	}
	o.inSystem++
	if o.cfg.OnAdmit != nil {
		o.cfg.OnAdmit(jobID, now)
	}
	r.openAdvance(o.admit(jobID, prog, now))
}

// admit takes a job record, a free one first, for an admitted job.
func (o *openState) admit(jobID int, prog *program.Program, now sim.Time) *openJob {
	var j *openJob
	if n := len(o.free); n > 0 {
		j = o.jobs[o.free[n-1]]
		o.free = o.free[:n-1]
	} else {
		j = &openJob{slot: len(o.jobs), tokens: make(map[tdg.Token]tdg.Token)}
		o.jobs = append(o.jobs, j)
	}
	tasks, ins, outs := size(prog)
	j.id, j.prog, j.next, j.live, j.arrived = jobID, prog, 0, 0, now
	j.toks = make([]tdg.Token, ins+outs)
	j.tasks = make([]tdg.Task, tasks)
	j.store.Reset(ins, outs)
	return j
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
	t := &j.tasks[0]
	j.tasks = j.tasks[1:]
	*t = tdg.Task{
		ID:          r.nextTaskID,
		Type:        spec.Type,
		CPUCycles:   spec.CPUCycles,
		MemTime:     spec.MemTime,
		IOTime:      spec.IOTime,
		Ins:         j.remap(r.open, spec.Ins),
		Outs:        j.remap(r.open, spec.Outs),
		Job:         j.slot,
		SubmittedAt: r.eng.Now(),
		Core:        -1,
	}
	r.nextTaskID++
	if r.opts.RetainTasks {
		r.retained = append(r.retained, t)
	}
	j.live++
	visited := r.graph.SubmitIn(&j.store, t) // may fire onTaskReady synchronously
	r.submitVisited += int64(visited)
}

// remap translates a template's dependence tokens into the job's fresh
// global tokens, allocating on first sight, into the next stretch of the
// job's backing array.
func (j *openJob) remap(o *openState, ts []tdg.Token) []tdg.Token {
	if len(ts) == 0 {
		return nil
	}
	out := j.toks[:len(ts):len(ts)]
	j.toks = j.toks[len(ts):]
	for i, tok := range ts {
		nt, ok := j.tokens[tok]
		if !ok {
			nt = o.nextToken
			o.nextToken++
			j.tokens[tok] = nt
			j.fresh = append(j.fresh, nt)
		}
		out[i] = nt
	}
	return out
}

// openTaskDone accounts one task completion against its job, advancing
// the job past a drained phase boundary (or to completion).
func (r *Runtime) openTaskDone(t *tdg.Task) {
	j := r.open.jobs[t.Job]
	j.live--
	if j.live == 0 {
		r.openAdvance(j)
	}
}

// openJobDone retires a completed job. Its data leave the graph — no
// other job names them — so nothing keeps its tasks or its program, and
// its record goes back to the free list.
func (r *Runtime) openJobDone(j *openJob) {
	o := r.open
	o.inSystem--
	if o.cfg.OnDone != nil {
		o.cfg.OnDone(j.id, j.arrived, r.eng.Now())
	}
	for _, tok := range j.fresh {
		r.graph.Forget(tok)
	}
	clear(j.tokens)
	j.fresh = j.fresh[:0]
	j.prog, j.toks, j.tasks = nil, nil, nil
	j.store = tdg.Store{}
	o.free = append(o.free, j.slot)
}

// openFinished is the open-system termination condition: every injected
// arrival has been delivered, no job is in the system, and the shared
// graph has drained.
func (r *Runtime) openFinished() bool {
	o := r.open
	return o.pending == 0 && o.inSystem == 0 && r.graph.AllDone()
}
