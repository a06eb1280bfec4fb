// Package program defines the executable form of a task-parallel
// application: an ordered list of task creations and barriers, as emitted
// by the master thread of an OmpSs/OpenMP 4.0 program (§II-A). Workload
// generators (internal/workloads) produce Programs; the runtime
// (internal/rts) executes them. WriteJSON and ReadJSON serialize a
// Program as a portable JSON trace that round-trips bit-exactly, the
// interchange format behind trace export and replay.
package program

import (
	"fmt"

	"cata/internal/sim"
	"cata/internal/tdg"
)

// TaskSpec describes one task instance to be created: its type (the
// annotation site, carrying the static criticality), its execution cost on
// the machine model, and its data dependences.
type TaskSpec struct {
	Type      *tdg.TaskType
	CPUCycles int64
	MemTime   sim.Time
	IOTime    sim.Time
	Ins, Outs []tdg.Token
}

// Item is one step of the master thread: either a task creation or a
// barrier (taskwait), which blocks creation until every previously created
// task has completed.
type Item struct {
	Task    *TaskSpec
	Barrier bool
}

// Program is a whole application: its name and the master thread's
// creation sequence. The zero Program is empty and ready to use.
type Program struct {
	Name  string
	Items []Item

	// specs is the unused rest of the chunk AddTask carves task specs
	// from. A chunk never grows, so the specs it holds never move.
	specs []TaskSpec
}

// Chunk bounds for AddTask: each new chunk holds half as many specs as
// the program has items so far, at least minSpecChunk and at most
// maxSpecChunk. Chunks grow geometrically without ever moving a spec,
// and a program of more than 32 tasks leaves under a third of the specs
// it allocates unused.
const (
	minSpecChunk = 16
	maxSpecChunk = 1024
)

// AddTask appends a task creation, copying spec into storage the
// program owns.
func (p *Program) AddTask(spec TaskSpec) {
	if len(p.specs) == 0 {
		p.specs = make([]TaskSpec, min(max(len(p.Items)/2, minSpecChunk), maxSpecChunk))
	}
	s := &p.specs[0]
	p.specs = p.specs[1:]
	*s = spec
	p.Items = append(p.Items, Item{Task: s})
}

// AddBarrier appends a taskwait.
func (p *Program) AddBarrier() {
	p.Items = append(p.Items, Item{Barrier: true})
}

// Tasks returns the number of task creations.
func (p *Program) Tasks() int {
	n := 0
	for _, it := range p.Items {
		if it.Task != nil {
			n++
		}
	}
	return n
}

// Barriers returns the number of barriers.
func (p *Program) Barriers() int {
	n := 0
	for _, it := range p.Items {
		if it.Barrier {
			n++
		}
	}
	return n
}

// TotalWork returns the aggregate task duration at the given frequency
// (ignoring IO), a lower bound on core-seconds of computation.
func (p *Program) TotalWork(f sim.Hertz) sim.Time {
	var w sim.Time
	for _, it := range p.Items {
		if it.Task != nil {
			w += sim.Cycles(it.Task.CPUCycles, f) + it.Task.MemTime
		}
	}
	return w
}

// Validate reports structural errors: empty programs, items that are
// neither task nor barrier (or both), and tasks with negative work.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("program: missing name")
	}
	if p.Tasks() == 0 {
		return fmt.Errorf("program %s: no tasks", p.Name)
	}
	for i, it := range p.Items {
		switch {
		case it.Task == nil && !it.Barrier:
			return fmt.Errorf("program %s: item %d is neither task nor barrier", p.Name, i)
		case it.Task != nil && it.Barrier:
			return fmt.Errorf("program %s: item %d is both task and barrier", p.Name, i)
		case it.Task != nil:
			t := it.Task
			if t.Type == nil {
				return fmt.Errorf("program %s: item %d has no task type", p.Name, i)
			}
			if t.CPUCycles < 0 || t.MemTime < 0 || t.IOTime < 0 {
				return fmt.Errorf("program %s: item %d has negative work", p.Name, i)
			}
			if t.CPUCycles == 0 && t.MemTime == 0 && t.IOTime == 0 {
				return fmt.Errorf("program %s: item %d is an empty task", p.Name, i)
			}
		}
	}
	return nil
}
