// Package rsm implements CATA's software Reconfiguration Support Module
// (§III-A, Figure 2): the runtime-system component that tracks each core's
// state (Accelerated / Non-Accelerated), the criticality of the task it
// runs (Critical / Non-Critical / No Task) and the power budget, and
// drives DVFS reconfigurations through the cpufreq framework.
//
// All reconfiguration decisions execute under a runtime-level lock and the
// cpufreq writes execute sequentially within it — the serialization the
// paper identifies as CATA's scalability bottleneck (§V-C) and the RSU
// removes.
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
	eng  *sim.Engine
	mach *machine.Machine
	fw   *cpufreq.Framework
	lock *cpufreq.Lock

	budget int
	crit   []CritState
	accel  []bool
	nAccel int

	// Budget accounting: denies counts TaskStart operations that ended
	// without an acceleration (no budget and no victim), and
	// accelCoreTime integrates nAccel over simulated time so budget
	// utilization can be reported per run.
	denies        int64
	accelCoreTime sim.Time
	accelMark     sim.Time

	// BookkeepingCycles is the table-update cost per operation, paid on
	// the calling core inside the lock.
	BookkeepingCycles int64

	// Statistics for §V-C.
	accels, decels int64
	opLatency      stats.DurationSummary // TaskStart/TaskEnd entry→exit
	opTimeTotal    sim.Time              // total time cores spent reconfiguring

	// rec, when non-nil, receives grant/deny events with budget state.
	rec probe.Recorder

	// ops holds one operation record per calling core.
	ops []op
}

// opPhase is the step an RSM operation takes when its record's callback
// next fires.
type opPhase int

const (
	startLocked  opPhase = iota // TaskStart: runtime lock granted → bookkeeping
	startBooked                 // bookkeeping paid → accelerate, swap or deny
	startSwapped                // victim's deceleration written → accelerate own core
	endLocked                   // TaskEnd: runtime lock granted → bookkeeping
	endBooked                   // bookkeeping paid → decelerate own core
	endSlowed                   // own deceleration written → hand the budget on
	opWritten                   // last cpufreq write returned → finish
)

// op is one calling core's TaskStart or TaskEnd in flight. A core runs
// one task at a time, so it has at most one operation in flight and one
// record per core suffices: the step callback is bound at construction,
// and an operation hands the lock, the core and the cpufreq framework no
// closure.
type op struct {
	r     *RSM
	core  int
	crit  CritState // the criticality the operation installs
	phase opPhase
	start sim.Time
	// done is the runtime's continuation; nil when no operation is in
	// flight.
	done   func()
	stepCb func() // step, bound at construction
}

// New creates an RSM with the given power budget (maximum number of
// simultaneously accelerated cores).
func New(eng *sim.Engine, mach *machine.Machine, fw *cpufreq.Framework, budget int) *RSM {
	if budget < 0 || budget > mach.Cores() {
		panic(fmt.Sprintf("rsm: budget %d out of range [0,%d]", budget, mach.Cores()))
	}
	r := &RSM{
		eng:               eng,
		mach:              mach,
		fw:                fw,
		lock:              cpufreq.NewLock(eng),
		budget:            budget,
		crit:              make([]CritState, mach.Cores()),
		accel:             make([]bool, mach.Cores()),
		BookkeepingCycles: 400,
		ops:               make([]op, mach.Cores()),
	}
	for i := range r.ops {
		o := &r.ops[i]
		o.r, o.core, o.stepCb = r, i, o.step
	}
	return r
}

// SetRecorder attaches a flight recorder reporting acceleration grants
// and denials together with the budget state at decision time.
func (r *RSM) SetRecorder(rec probe.Recorder) { r.rec = rec }

// Budget returns the power budget.
func (r *RSM) Budget() int { return r.budget }

// Accelerated reports whether the RSM considers the core accelerated.
func (r *RSM) Accelerated(core int) bool { return r.accel[core] }

// AcceleratedCount returns how many cores are currently accelerated. The
// invariant AcceleratedCount() <= Budget() holds at all times.
func (r *RSM) AcceleratedCount() int { return r.nAccel }

// Crit returns the criticality field for a core.
func (r *RSM) Crit(core int) CritState { return r.crit[core] }

// Lock exposes the runtime reconfiguration lock for contention analysis.
func (r *RSM) Lock() *cpufreq.Lock { return r.lock }

// Reconfigs returns the number of acceleration and deceleration
// operations issued.
func (r *RSM) Reconfigs() (accels, decels int64) { return r.accels, r.decels }

// AccelCoreTime returns the accelerated core-time accumulated so far:
// the integral of the accelerated-core count over simulated time.
// Dividing by budget × makespan yields the power-budget utilization.
func (r *RSM) AccelCoreTime() sim.Time {
	return r.accelCoreTime + sim.Time(r.nAccel)*(r.eng.Now()-r.accelMark)
}

// noteAccelChange folds the elapsed interval at the current
// accelerated-core count into the integral before nAccel changes.
func (r *RSM) noteAccelChange() {
	now := r.eng.Now()
	r.accelCoreTime += sim.Time(r.nAccel) * (now - r.accelMark)
	r.accelMark = now
}

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
	st.ReconfigOps = r.accels + r.decels
	st.ReconfigLatencyAvg = r.opLatency.MeanTime()
	st.ReconfigLatencyMax = r.opLatency.MaxTime()
	st.LockWaitMax = r.lock.WaitTimes().MaxTime()
	st.ReconfigOverheadPct = 100 * float64(r.opTimeTotal) / (float64(makespan) * float64(r.mach.Cores()))
	st.AccelsGranted = r.accels
	st.AccelsDenied = r.denies
	if r.budget > 0 && makespan > 0 {
		st.BudgetUtilization = float64(r.AccelCoreTime()) / (float64(makespan) * float64(r.budget))
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
	cs := NonCritical
	if critical {
		cs = Critical
	}
	r.begin(core, cs, startLocked, done)
}

// TaskEnd runs the §III-A algorithm when a task finishes on core: the core
// is decelerated and, if a critical task runs non-accelerated somewhere,
// that core is accelerated with the freed budget.
func (r *RSM) TaskEnd(core int, done func()) {
	r.begin(core, NoTask, endLocked, done)
}

// begin starts core's operation: it queues on the runtime lock.
func (r *RSM) begin(core int, cs CritState, phase opPhase, done func()) {
	o := &r.ops[core]
	if o.done != nil {
		panic(fmt.Sprintf("rsm: core %d starts an operation with one in flight", core))
	}
	o.crit, o.phase, o.done = cs, phase, done
	o.start = r.eng.Now()
	r.lock.Acquire(o.stepCb)
}

// step advances the operation one stage.
func (o *op) step() {
	r := o.r
	switch o.phase {
	case startLocked, endLocked:
		o.phase++
		r.mach.Core(o.core).Exec(r.BookkeepingCycles, 0, o.stepCb)
	case startBooked:
		r.crit[o.core] = o.crit
		critical := o.crit == Critical
		switch {
		case r.nAccel < r.budget:
			r.accelerate(o.core)
			o.write(o.core, true, opWritten)
		case critical:
			victim := r.findVictim()
			if victim >= 0 {
				r.decelerate(victim)
				o.write(victim, false, startSwapped)
			} else {
				// All accelerated cores run critical tasks: run slow.
				r.deny(o.core, true)
			}
		default:
			r.deny(o.core, false)
		}
	case startSwapped:
		r.accelerate(o.core)
		o.write(o.core, true, opWritten)
	case endBooked:
		r.crit[o.core] = NoTask
		if !r.accel[o.core] {
			r.finishOp(o)
			return
		}
		r.decelerate(o.core)
		o.write(o.core, false, endSlowed)
	case endSlowed:
		next := r.findWaitingCritical()
		if next < 0 {
			r.finishOp(o)
			return
		}
		r.accelerate(next)
		o.write(next, true, opWritten)
	case opWritten:
		r.finishOp(o)
	}
}

// write issues one cpufreq write from the operation's core, resuming at
// phase then when it returns.
func (o *op) write(target int, fast bool, then opPhase) {
	level := o.r.mach.Cfg.SlowLevel
	if fast {
		level = o.r.mach.Cfg.FastLevel
	}
	o.phase = then
	o.r.fw.Write(o.core, target, level, o.stepCb)
}

// deny ends a TaskStart that leaves its core slow.
func (r *RSM) deny(core int, critical bool) {
	r.denies++
	if r.rec != nil {
		r.rec.AccelDeny(r.eng.Now(), core, critical, r.nAccel, r.budget)
	}
	r.finishOp(&r.ops[core])
}

// findVictim returns an accelerated core running a non-critical task, or
// -1. Lowest index first: deterministic and matching a linear table scan.
func (r *RSM) findVictim() int {
	for i := range r.accel {
		if r.accel[i] && r.crit[i] == NonCritical {
			return i
		}
	}
	return -1
}

// findWaitingCritical returns a non-accelerated core running a critical
// task, or -1.
func (r *RSM) findWaitingCritical() int {
	for i := range r.accel {
		if !r.accel[i] && r.crit[i] == Critical {
			return i
		}
	}
	return -1
}

func (r *RSM) accelerate(core int) {
	if r.accel[core] {
		panic(fmt.Sprintf("rsm: double accelerate of core %d", core))
	}
	r.noteAccelChange()
	r.accel[core] = true
	r.nAccel++
	r.accels++
	if r.nAccel > r.budget {
		panic(fmt.Sprintf("rsm: budget exceeded: %d > %d", r.nAccel, r.budget))
	}
	if r.rec != nil {
		r.rec.AccelGrant(r.eng.Now(), core, r.crit[core] == Critical, r.nAccel, r.budget)
	}
}

func (r *RSM) decelerate(core int) {
	if !r.accel[core] {
		panic(fmt.Sprintf("rsm: decelerate of non-accelerated core %d", core))
	}
	r.noteAccelChange()
	r.accel[core] = false
	r.nAccel--
	r.decels++
}

func (r *RSM) finishOp(o *op) {
	r.lock.Release()
	lat := r.eng.Now() - o.start
	r.opLatency.ObserveTime(lat)
	r.opTimeTotal += lat
	done := o.done
	o.done = nil
	done()
}
