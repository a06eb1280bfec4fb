package cata

import (
	"fmt"
	"time"

	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/tdg"
)

// Token names a datum a task reads or writes; the runtime derives
// dependence edges from producer/consumer relationships exactly as
// OpenMP 4.0 / OmpSs do (§II-A).
type Token uint64

// TaskType corresponds to one task annotation site in a program's source,
// carrying the paper's static criticality annotation (§II-B).
type TaskType struct {
	inner *tdg.TaskType
}

// NewTaskType creates a task type. criticality follows the paper's
// criticality(c) clause: 0 is non-critical, larger is more critical.
func NewTaskType(name string, criticality int) *TaskType {
	return &TaskType{&tdg.TaskType{Name: name, Criticality: criticality}}
}

// Name returns the type name.
func (t *TaskType) Name() string { return t.inner.Name }

// Criticality returns the static annotation level.
func (t *TaskType) Criticality() int { return t.inner.Criticality }

// TaskSpec describes one task instance for Program.Task.
type TaskSpec struct {
	// Type is the task's annotation site (required).
	Type *TaskType
	// Duration is the task's execution time on a slow (1 GHz) core.
	Duration time.Duration
	// MemFraction in [0,1] is the portion of Duration stalled on memory,
	// which does not speed up with core frequency (default 0).
	MemFraction float64
	// IOTime is time spent blocked in a kernel service with the core
	// halted (§V-D), appended after the compute part.
	IOTime time.Duration
	// Ins and Outs are the task's data dependences.
	Ins, Outs []Token
}

// Program is a custom task-parallel application: an ordered sequence of
// task creations and barriers emitted by the (simulated) master thread.
// Build one with NewProgram, then pass it in RunConfig.Program.
type Program struct {
	inner     *program.Program
	nextToken Token
	err       error
}

// NewProgram starts an empty program.
func NewProgram(name string) *Program {
	return &Program{inner: &program.Program{Name: name}, nextToken: 1}
}

// NewToken allocates a fresh datum token.
func (p *Program) NewToken() Token {
	t := p.nextToken
	p.nextToken++
	return t
}

// Task appends a task creation. Errors (bad durations, missing type) are
// latched and reported by Run / Err.
func (p *Program) Task(spec TaskSpec) *Program {
	if p.err != nil {
		return p
	}
	if spec.Type == nil {
		p.err = fmt.Errorf("cata: task without type in program %s", p.inner.Name)
		return p
	}
	if spec.Duration <= 0 {
		p.err = fmt.Errorf("cata: task of type %s has non-positive duration", spec.Type.Name())
		return p
	}
	if spec.MemFraction < 0 || spec.MemFraction > 1 {
		p.err = fmt.Errorf("cata: task of type %s has MemFraction %v outside [0,1]",
			spec.Type.Name(), spec.MemFraction)
		return p
	}
	slowDur := toSimTime(spec.Duration)
	mem := sim.Time(float64(slowDur) * spec.MemFraction)
	cycles := int64((slowDur - mem) / sim.Gigahertz.Period())
	if cycles == 0 && mem == 0 {
		cycles = 1
	}
	ins := make([]tdg.Token, len(spec.Ins))
	for i, t := range spec.Ins {
		ins[i] = tdg.Token(t)
	}
	outs := make([]tdg.Token, len(spec.Outs))
	for i, t := range spec.Outs {
		outs[i] = tdg.Token(t)
	}
	p.inner.AddTask(program.TaskSpec{
		Type:      spec.Type.inner,
		CPUCycles: cycles,
		MemTime:   mem,
		IOTime:    toSimTime(spec.IOTime),
		Ins:       ins,
		Outs:      outs,
	})
	return p
}

// Barrier appends a taskwait: the master thread stalls until every
// previously created task completes.
func (p *Program) Barrier() *Program {
	if p.err == nil {
		p.inner.AddBarrier()
	}
	return p
}

// Tasks returns the number of task creations so far.
func (p *Program) Tasks() int { return p.inner.Tasks() }

// Err returns the first construction error, if any.
func (p *Program) Err() error {
	if p.err != nil {
		return p.err
	}
	return p.inner.Validate()
}

func (p *Program) build() *program.Program { return p.inner }
