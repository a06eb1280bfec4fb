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
}

// New creates an RSM with the given power budget (maximum number of
// simultaneously accelerated cores).
func New(eng *sim.Engine, mach *machine.Machine, fw *cpufreq.Framework, budget int) *RSM {
	if budget < 0 || budget > mach.Cores() {
		panic(fmt.Sprintf("rsm: budget %d out of range [0,%d]", budget, mach.Cores()))
	}
	return &RSM{
		eng:               eng,
		mach:              mach,
		fw:                fw,
		lock:              cpufreq.NewLock(eng),
		budget:            budget,
		crit:              make([]CritState, mach.Cores()),
		accel:             make([]bool, mach.Cores()),
		BookkeepingCycles: 400,
	}
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
	start := r.eng.Now()
	cs := NonCritical
	if critical {
		cs = Critical
	}
	r.lock.Acquire(func() {
		r.mach.Core(core).Exec(r.BookkeepingCycles, 0, func() {
			r.crit[core] = cs
			switch {
			case r.nAccel < r.budget:
				r.accelerate(core)
				r.write(core, core, true, func() { r.finishOp(core, start, done) })
			case critical:
				victim := r.findVictim()
				if victim >= 0 {
					r.decelerate(victim)
					r.write(core, victim, false, func() {
						r.accelerate(core)
						r.write(core, core, true, func() { r.finishOp(core, start, done) })
					})
				} else {
					// All accelerated cores run critical tasks: run slow.
					r.denies++
					if r.rec != nil {
						r.rec.AccelDeny(r.eng.Now(), core, true, r.nAccel, r.budget)
					}
					r.finishOp(core, start, done)
				}
			default:
				r.denies++
				if r.rec != nil {
					r.rec.AccelDeny(r.eng.Now(), core, false, r.nAccel, r.budget)
				}
				r.finishOp(core, start, done)
			}
		})
	})
}

// TaskEnd runs the §III-A algorithm when a task finishes on core: the core
// is decelerated and, if a critical task runs non-accelerated somewhere,
// that core is accelerated with the freed budget.
func (r *RSM) TaskEnd(core int, done func()) {
	start := r.eng.Now()
	r.lock.Acquire(func() {
		r.mach.Core(core).Exec(r.BookkeepingCycles, 0, func() {
			r.crit[core] = NoTask
			if !r.accel[core] {
				r.finishOp(core, start, done)
				return
			}
			r.decelerate(core)
			r.write(core, core, false, func() {
				next := r.findWaitingCritical()
				if next < 0 {
					r.finishOp(core, start, done)
					return
				}
				r.accelerate(next)
				r.write(core, next, true, func() { r.finishOp(core, start, done) })
			})
		})
	})
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

func (r *RSM) write(caller, target int, fast bool, done func()) {
	level := r.mach.Cfg.SlowLevel
	if fast {
		level = r.mach.Cfg.FastLevel
	}
	r.fw.Write(caller, target, level, done)
}

func (r *RSM) finishOp(core int, start sim.Time, done func()) {
	r.lock.Release()
	lat := r.eng.Now() - start
	r.opLatency.ObserveTime(lat)
	r.opTimeTotal += lat
	done()
}
