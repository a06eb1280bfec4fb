// Package rsm implements CATA's software Reconfiguration Support Module
// (§III-A, Figure 2): the runtime-system component that tracks each core's
// state (Accelerated / Non-Accelerated), the criticality of the task it
// runs (Critical / Non-Critical / No Task) and the power budget, and
// drives DVFS reconfigurations through the cpufreq framework.
//
// The decisions are the acceleration allocator's (Alloc), which the
// hardware RSU (internal/rsu) shares. The RSM runs each decision under a
// runtime-level lock and performs its moves as sequential cpufreq writes
// within it — the serialization the paper identifies as CATA's
// scalability bottleneck (§V-C) and the RSU removes.
package rsm

import (
	"fmt"

	"cata/internal/cpufreq"
	"cata/internal/machine"
	"cata/internal/probe"
	"cata/internal/sim"
	"cata/internal/stats"
)

// CritState is the per-core criticality field of Figure 2/3.
type CritState int

const (
	// NoTask: the core is not executing a task.
	NoTask CritState = iota
	// NonCritical: the core executes a non-critical task.
	NonCritical
	// Critical: the core executes a critical task.
	Critical
)

// String returns a one-character state marker.
func (c CritState) String() string {
	switch c {
	case NoTask:
		return "-"
	case NonCritical:
		return "NC"
	case Critical:
		return "C"
	default:
		return fmt.Sprintf("CritState(%d)", int(c))
	}
}

// RSM is the software reconfiguration module.
type RSM struct {
	eng   *sim.Engine
	mach  *machine.Machine
	fw    *cpufreq.Framework
	lock  *cpufreq.Lock
	alloc *Alloc

	// BookkeepingCycles is the table-update cost per operation, paid on
	// the calling core inside the lock.
	BookkeepingCycles int64

	// Statistics for §V-C.
	opLatency   stats.DurationSummary // TaskStart/TaskEnd entry→exit
	opTimeTotal sim.Time              // total time cores spent reconfiguring

	// ops holds one operation record per calling core.
	ops []op
}

// opPhase is the step an RSM operation takes when its record's callback
// next fires.
type opPhase int

const (
	opLocked  opPhase = iota // runtime lock granted → bookkeeping
	opBooked                 // bookkeeping paid → decide, write the first move
	opWritten                // a move's cpufreq write returned → write the next or finish
)

// op is one calling core's TaskStart or TaskEnd in flight. A core runs
// one task at a time, so it has at most one operation in flight and one
// record per core suffices: the step callback is bound at construction,
// and an operation hands the lock, the core and the cpufreq framework no
// closure.
type op struct {
	r        *RSM
	core     int
	end      bool // TaskEnd, else TaskStart
	critical bool
	phase    opPhase
	start    sim.Time
	// moves are the decision's moves not yet written. The runtime lock
	// keeps every other decision out until the last is written.
	moves []Move
	// done is the runtime's continuation; nil when no operation is in
	// flight.
	done   func()
	stepCb func() // step, bound at construction
}

// New creates an RSM with the given power budget (maximum number of
// simultaneously accelerated cores) on a dual-rail machine: two
// operating points, the slow one at level 0.
func New(eng *sim.Engine, mach *machine.Machine, fw *cpufreq.Framework, budget int) *RSM {
	if mach.Cfg.Power.Levels() != 2 || mach.Cfg.SlowLevel != 0 {
		panic(fmt.Sprintf("rsm: machine has %d levels, slow at %d; the RSM drives 2, slow at 0",
			mach.Cfg.Power.Levels(), mach.Cfg.SlowLevel))
	}
	r := &RSM{
		eng:               eng,
		mach:              mach,
		fw:                fw,
		lock:              cpufreq.NewLock(eng),
		alloc:             NewAlloc(eng, mach.Cores(), TwoLevelCosts()),
		BookkeepingCycles: 400,
		ops:               make([]op, mach.Cores()),
	}
	r.alloc.SetBudget(budget)
	for i := range r.ops {
		o := &r.ops[i]
		o.r, o.core, o.stepCb = r, i, o.step
	}
	return r
}

// SetRecorder attaches a flight recorder reporting acceleration grants
// and denials together with the budget state at decision time.
func (r *RSM) SetRecorder(rec probe.Recorder) { r.alloc.SetRecorder(rec) }

// Alloc returns the module's allocation table: per-core criticality and
// level, the budget and the move counts.
func (r *RSM) Alloc() *Alloc { return r.alloc }

// Lock exposes the runtime reconfiguration lock for contention analysis.
func (r *RSM) Lock() *cpufreq.Lock { return r.lock }

// OpLatency summarizes the latency of TaskStart/TaskEnd operations
// (lock wait + bookkeeping + cpufreq writes) — the paper's
// "reconfiguration latency" (§V-C).
func (r *RSM) OpLatency() *stats.DurationSummary { return &r.opLatency }

// OpTimeTotal returns the total core time consumed by reconfiguration
// operations, for the §V-C overhead percentage.
func (r *RSM) OpTimeTotal() sim.Time { return r.opTimeTotal }

// Harvest reports a run of the given makespan: operation counts and
// latencies, the worst runtime-lock wait, reconfiguration core time as a
// percentage of all core time, and the budget's grants, denials and
// utilization.
func (r *RSM) Harvest(st stats.Reconfig, makespan sim.Time) stats.Reconfig {
	accels, decels, denials := r.alloc.Counts()
	st.ReconfigOps = accels + decels
	st.ReconfigLatencyAvg = r.opLatency.MeanTime()
	st.ReconfigLatencyMax = r.opLatency.MaxTime()
	st.LockWaitMax = r.lock.WaitTimes().MaxTime()
	st.ReconfigOverheadPct = 100 * float64(r.opTimeTotal) / (float64(makespan) * float64(r.mach.Cores()))
	st.AccelsGranted = accels
	st.AccelsDenied = denials
	if budget := r.alloc.Budget(); budget > 0 && makespan > 0 {
		st.BudgetUtilization = float64(r.alloc.UnitTime()) / (float64(makespan) * float64(budget))
	}
	return st
}

// TaskStart runs the §III-A algorithm when a task begins on core:
//
//	if budget is available            -> accelerate core (even non-critical)
//	else if task is critical and some -> decelerate that core, then
//	     accelerated core runs a         accelerate this one
//	     non-critical task
//	else                              -> run non-accelerated
//
// The operation (lock, bookkeeping, cpufreq writes) executes on the
// calling core's timeline; done fires when it completes and the task may
// start executing.
func (r *RSM) TaskStart(core int, critical bool, done func()) {
	r.begin(core, false, critical, done)
}

// TaskEnd runs the §III-A algorithm when a task finishes on core: the core
// is decelerated and, if a critical task runs non-accelerated somewhere,
// that core is accelerated with the freed budget.
func (r *RSM) TaskEnd(core int, done func()) {
	r.begin(core, true, false, done)
}

// begin starts core's operation: it queues on the runtime lock.
func (r *RSM) begin(core int, end, critical bool, done func()) {
	o := &r.ops[core]
	if o.done != nil {
		panic(fmt.Sprintf("rsm: core %d starts an operation with one in flight", core))
	}
	o.end, o.critical, o.phase, o.done = end, critical, opLocked, done
	o.start = r.eng.Now()
	r.lock.Acquire(o.stepCb)
}

// step advances the operation one stage.
func (o *op) step() {
	r := o.r
	switch o.phase {
	case opLocked:
		o.phase = opBooked
		r.mach.Core(o.core).Exec(r.BookkeepingCycles, 0, o.stepCb)
	case opBooked:
		if o.end {
			o.moves = r.alloc.End(o.core)
		} else {
			o.moves = r.alloc.Start(o.core, o.critical)
		}
		o.phase = opWritten
		o.writeNext()
	case opWritten:
		o.writeNext()
	}
}

// writeNext commits the operation's next move and writes it from the
// operation's core, or finishes the operation when none is left.
func (o *op) writeNext() {
	r := o.r
	if len(o.moves) == 0 {
		r.lock.Release()
		lat := r.eng.Now() - o.start
		r.opLatency.ObserveTime(lat)
		r.opTimeTotal += lat
		done := o.done
		o.done = nil
		done()
		return
	}
	m := o.moves[0]
	o.moves = o.moves[1:]
	r.alloc.Apply(m)
	r.fw.Write(o.core, m.Core, m.Level, o.stepCb)
}
