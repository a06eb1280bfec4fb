package rts

import (
	"cata/internal/machine"
	"cata/internal/rsm"
	"cata/internal/rsu"
	"cata/internal/tdg"
)

// Reconfigurer is the runtime's hook into a hardware-reconfiguration
// mechanism. TaskStart is invoked after a task is dispatched to a core and
// before its body executes; TaskEnd after the body finishes. done must be
// called exactly once when the runtime may proceed; any time consumed in
// between is reconfiguration overhead on the task's critical path (§V-C).
type Reconfigurer interface {
	Name() string
	TaskStart(core int, t *tdg.Task, done func())
	TaskEnd(core int, t *tdg.Task, done func())
}

// NoReconfig is the null mechanism used by FIFO, CATS and TurboMode
// configurations (TurboMode reacts to C-state edges, not task events).
type NoReconfig struct{}

// Name implements Reconfigurer.
func (NoReconfig) Name() string { return "none" }

// TaskStart implements Reconfigurer.
func (NoReconfig) TaskStart(_ int, _ *tdg.Task, done func()) { done() }

// TaskEnd implements Reconfigurer.
func (NoReconfig) TaskEnd(_ int, _ *tdg.Task, done func()) { done() }

// RSMReconfig drives CATA's software reconfiguration module: every task
// start/end runs the §III-A algorithm under the runtime lock, paying the
// cpufreq software path on the calling core.
type RSMReconfig struct{ RSM *rsm.RSM }

// Name implements Reconfigurer.
func (r RSMReconfig) Name() string { return "rsm" }

// TaskStart implements Reconfigurer.
func (r RSMReconfig) TaskStart(core int, t *tdg.Task, done func()) {
	r.RSM.TaskStart(core, t.Critical, done)
}

// TaskEnd implements Reconfigurer.
func (r RSMReconfig) TaskEnd(core int, _ *tdg.Task, done func()) {
	r.RSM.TaskEnd(core, done)
}

// RSUReconfig drives the hardware Runtime Support Unit: the runtime
// executes one rsu_start_task/rsu_end_task instruction (a few cycles on
// the calling core); decision and DVFS programming happen in hardware.
// Build it with NewRSUReconfig.
type RSUReconfig struct {
	unit     *rsu.RSU
	mach     *machine.Machine
	opCycles int64
	ops      []rsuOp // one per calling core
}

// rsuOp is one calling core's RSU instruction in flight. A core issues
// one at a time, so one record per core suffices; its step callback is
// bound at construction and an instruction schedules no closure.
type rsuOp struct {
	r        *RSUReconfig
	core     int
	end      bool // the phase: rsu_end_task, else rsu_start_task
	critical bool
	done     func() // the runtime's continuation
	stepCb   func() // step, bound at construction
}

// NewRSUReconfig returns the mechanism driving unit on the machine's
// cores, each instruction costing opCycles on the calling core.
func NewRSUReconfig(unit *rsu.RSU, mach *machine.Machine, opCycles int64) *RSUReconfig {
	r := &RSUReconfig{unit: unit, mach: mach, opCycles: opCycles, ops: make([]rsuOp, mach.Cores())}
	for i := range r.ops {
		o := &r.ops[i]
		o.r, o.core, o.stepCb = r, i, o.step
	}
	return r
}

// Name implements Reconfigurer.
func (r *RSUReconfig) Name() string { return "rsu" }

// TaskStart implements Reconfigurer.
func (r *RSUReconfig) TaskStart(core int, t *tdg.Task, done func()) {
	r.issue(core, false, t.Critical, done)
}

// TaskEnd implements Reconfigurer.
func (r *RSUReconfig) TaskEnd(core int, _ *tdg.Task, done func()) {
	r.issue(core, true, false, done)
}

// issue charges the instruction on core; the unit acts when it retires.
func (r *RSUReconfig) issue(core int, end, critical bool, done func()) {
	o := &r.ops[core]
	o.end, o.critical, o.done = end, critical, done
	r.mach.Core(core).Exec(r.opCycles, 0, o.stepCb)
}

// step retires the instruction: the unit decides, then the runtime
// resumes.
func (o *rsuOp) step() {
	if o.end {
		o.r.unit.EndTask(o.core)
	} else {
		o.r.unit.StartTask(o.core, o.critical)
	}
	done := o.done
	o.done = nil
	done()
}
