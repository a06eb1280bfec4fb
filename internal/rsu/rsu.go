// Package rsu implements the Runtime Support Unit (§III-B): a small
// hardware unit that executes the CATA reconfiguration algorithm, relieving
// the runtime of the software cpufreq path and its lock serialization. It
// stores, per core, the running task's criticality (Critical /
// Non-Critical / No Task) and acceleration status, plus the two power-level
// registers and the power budget, and drives the DVFS controller directly.
//
// The unit is managed through ISA-like operations (rsu_init, rsu_reset,
// rsu_disable, rsu_start_task, rsu_end_task, rsu_read_critic) and supports
// OS virtualization across context switches (§III-B.3).
package rsu

import (
	"fmt"

	"cata/internal/energy"
	"cata/internal/machine"
	"cata/internal/probe"
	"cata/internal/rsm"
	"cata/internal/sim"
	"cata/internal/stats"
)

// RSU is the hardware reconfiguration unit. All operations are
// hardware-speed: decisions and DVFS controller writes happen within the
// invoking instruction (the physical V/f transition still takes the
// configured 25 µs). The invoking core's 2-cycle instruction cost is
// charged by the runtime, not here.
type RSU struct {
	eng  *sim.Engine
	mach *machine.Machine

	enabled bool
	budget  int
	crit    []rsm.CritState
	accel   []bool
	nAccel  int

	// The two power-state registers of §III-B.1, set at OS boot.
	accelLevel    energy.Level
	nonAccelLevel energy.Level

	accels, decels int64
	ops            int64

	// rec, when non-nil, receives grant/deny events with budget state.
	rec probe.Recorder
}

// New returns a disabled RSU attached to the machine. Call Init before use
// (mirroring rsu_init executed by the runtime at startup).
func New(eng *sim.Engine, mach *machine.Machine) *RSU {
	r := &RSU{
		eng:           eng,
		mach:          mach,
		crit:          make([]rsm.CritState, mach.Cores()),
		accel:         make([]bool, mach.Cores()),
		accelLevel:    mach.Cfg.FastLevel,
		nonAccelLevel: mach.Cfg.SlowLevel,
	}
	return r
}

// SetRecorder attaches a flight recorder reporting acceleration grants
// and denials together with the budget state at decision time.
func (r *RSU) SetRecorder(rec probe.Recorder) { r.rec = rec }

// Init implements rsu_init: enable the unit with the given power budget.
func (r *RSU) Init(budget int) {
	if budget < 0 || budget > r.mach.Cores() {
		panic(fmt.Sprintf("rsu: budget %d out of range [0,%d]", budget, r.mach.Cores()))
	}
	r.budget = budget
	r.enabled = true
}

// Reset implements rsu_reset: clear all per-core state, decelerating every
// accelerated core.
func (r *RSU) Reset() {
	for i := range r.crit {
		r.crit[i] = rsm.NoTask
		if r.accel[i] {
			r.decelerate(i)
		}
	}
}

// Disable implements rsu_disable: Reset and stop accepting operations.
func (r *RSU) Disable() {
	r.Reset()
	r.enabled = false
}

// Enabled reports whether the unit accepts operations.
func (r *RSU) Enabled() bool { return r.enabled }

// Budget returns the configured power budget.
func (r *RSU) Budget() int { return r.budget }

// Accelerated reports the acceleration status bit for a core.
func (r *RSU) Accelerated(core int) bool { return r.accel[core] }

// AcceleratedCount returns the number of accelerated cores; it never
// exceeds Budget.
func (r *RSU) AcceleratedCount() int { return r.nAccel }

// ReadCritic implements rsu_read_critic: the criticality field for a core.
func (r *RSU) ReadCritic(core int) rsm.CritState { return r.crit[core] }

// Reconfigs returns the acceleration/deceleration operation counts.
func (r *RSU) Reconfigs() (accels, decels int64) { return r.accels, r.decels }

// Ops returns the number of start/end notifications processed.
func (r *RSU) Ops() int64 { return r.ops }

// Harvest reports the unit's reconfiguration operations and grants.
func (r *RSU) Harvest(st stats.Reconfig, _ sim.Time) stats.Reconfig {
	st.ReconfigOps = r.accels + r.decels
	st.AccelsGranted = r.accels
	return st
}

// StartTask implements rsu_start_task(cpu, critic): the same algorithm as
// rsm.RSM.TaskStart, executed instantly in hardware (§III-B.2).
func (r *RSU) StartTask(core int, critical bool) {
	r.mustBeEnabled()
	r.ops++
	cs := rsm.NonCritical
	if critical {
		cs = rsm.Critical
	}
	r.crit[core] = cs
	switch {
	case r.nAccel < r.budget:
		r.accelerate(core)
	case critical:
		if victim := r.findVictim(); victim >= 0 {
			r.decelerate(victim)
			r.accelerate(core)
		} else if r.rec != nil {
			// All accelerated cores run critical tasks: run slow.
			r.rec.AccelDeny(r.eng.Now(), core, true, r.nAccel, r.budget)
		}
	default:
		if r.rec != nil {
			r.rec.AccelDeny(r.eng.Now(), core, false, r.nAccel, r.budget)
		}
	}
}

// EndTask implements rsu_end_task(cpu): decelerate the finishing core and
// hand the freed budget to a non-accelerated critical task, if any.
func (r *RSU) EndTask(core int) {
	r.mustBeEnabled()
	r.ops++
	r.crit[core] = rsm.NoTask
	if !r.accel[core] {
		return
	}
	r.decelerate(core)
	if next := r.findWaitingCritical(); next >= 0 {
		r.accelerate(next)
	}
}

// SaveContext implements the OS side of a context-switch save (§III-B.3):
// it reads the criticality value (to be stored in the kernel
// thread_struct) and sets No Task, re-scheduling the remaining tasks
// exactly as a task end does.
func (r *RSU) SaveContext(core int) rsm.CritState {
	saved := r.crit[core]
	r.EndTask(core)
	return saved
}

// RestoreContext implements the OS side of a context-switch restore: the
// thread's saved criticality value is written back, competing for
// acceleration like a task start.
func (r *RSU) RestoreContext(core int, saved rsm.CritState) {
	if saved == rsm.NoTask {
		return
	}
	r.StartTask(core, saved == rsm.Critical)
}

func (r *RSU) mustBeEnabled() {
	if !r.enabled {
		panic("rsu: operation on disabled unit")
	}
}

func (r *RSU) findVictim() int {
	for i := range r.accel {
		if r.accel[i] && r.crit[i] == rsm.NonCritical {
			return i
		}
	}
	return -1
}

func (r *RSU) findWaitingCritical() int {
	for i := range r.accel {
		if !r.accel[i] && r.crit[i] == rsm.Critical {
			return i
		}
	}
	return -1
}

func (r *RSU) accelerate(core int) {
	if r.accel[core] {
		panic(fmt.Sprintf("rsu: double accelerate of core %d", core))
	}
	r.accel[core] = true
	r.nAccel++
	r.accels++
	if r.nAccel > r.budget {
		panic(fmt.Sprintf("rsu: budget exceeded: %d > %d", r.nAccel, r.budget))
	}
	if r.rec != nil {
		r.rec.AccelGrant(r.eng.Now(), core, r.crit[core] == rsm.Critical, r.nAccel, r.budget)
	}
	r.mach.DVFS.Request(core, r.accelLevel)
}

func (r *RSU) decelerate(core int) {
	if !r.accel[core] {
		panic(fmt.Sprintf("rsu: decelerate of non-accelerated core %d", core))
	}
	r.accel[core] = false
	r.nAccel--
	r.decels++
	r.mach.DVFS.Request(core, r.nonAccelLevel)
}
