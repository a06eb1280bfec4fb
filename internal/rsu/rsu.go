// Package rsu implements the Runtime Support Unit (§III-B): a small
// hardware unit that executes the CATA reconfiguration algorithm, relieving
// the runtime of the software cpufreq path and its lock serialization. It
// stores, per core, the running task's criticality (Critical /
// Non-Critical / No Task) and operating level, plus the power budget, and
// drives the DVFS controller directly.
//
// The decisions are the acceleration allocator's (rsm.Alloc), the one the
// software RSM runs: the RSU is the RSM without the software path. One
// unit covers both cost tables: the paper's two levels with costs {0, 1}
// and a budget of fast cores, and the three-level extension with costs
// {0, 1, 2} and a budget of power units.
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
	mach    *machine.Machine
	alloc   *rsm.Alloc
	enabled bool
	ops     int64
}

// New returns a disabled RSU attached to the machine. unitCosts[l] is the
// budget cost of running a core at level l, one cost per operating
// point, the machine slow at level 0 and fast at the top:
// rsm.TwoLevelCosts for the paper's machine, ThreeLevelUnitCosts for the
// three-level extension. Call Init before use (mirroring rsu_init
// executed by the runtime at startup).
func New(eng *sim.Engine, mach *machine.Machine, unitCosts []int) *RSU {
	top := energy.Level(len(unitCosts) - 1)
	if len(unitCosts) != mach.Cfg.Power.Levels() || mach.Cfg.SlowLevel != 0 || mach.Cfg.FastLevel != top {
		panic(fmt.Sprintf("rsu: unit costs for %d levels, slow at 0 and fast at %d; machine has %d, slow at %d and fast at %d",
			len(unitCosts), top, mach.Cfg.Power.Levels(), mach.Cfg.SlowLevel, mach.Cfg.FastLevel))
	}
	return &RSU{mach: mach, alloc: rsm.NewAlloc(eng, mach.Cores(), unitCosts)}
}

// SetRecorder attaches a flight recorder reporting acceleration grants
// and denials together with the budget state at decision time.
func (r *RSU) SetRecorder(rec probe.Recorder) { r.alloc.SetRecorder(rec) }

// Init implements rsu_init: enable the unit with the given power budget,
// in units.
func (r *RSU) Init(budget int) {
	r.alloc.SetBudget(budget)
	r.enabled = true
}

// Reset implements rsu_reset: clear all per-core state, decelerating every
// accelerated core.
func (r *RSU) Reset() { r.apply(r.alloc.Reset()) }

// Disable implements rsu_disable: Reset and stop accepting operations.
func (r *RSU) Disable() {
	r.Reset()
	r.enabled = false
}

// Enabled reports whether the unit accepts operations.
func (r *RSU) Enabled() bool { return r.enabled }

// Alloc returns the unit's allocation table: per-core criticality and
// level, the budget and the move counts.
func (r *RSU) Alloc() *rsm.Alloc { return r.alloc }

// ReadCritic implements rsu_read_critic: the criticality field for a core.
func (r *RSU) ReadCritic(core int) rsm.CritState { return r.alloc.Crit(core) }

// Ops returns the number of start/end notifications processed.
func (r *RSU) Ops() int64 { return r.ops }

// Harvest reports the unit's level moves as reconfiguration operations
// and, for the two-level unit, its upward moves as grants.
func (r *RSU) Harvest(st stats.Reconfig, _ sim.Time) stats.Reconfig {
	up, down, _ := r.alloc.Counts()
	st.ReconfigOps = up + down
	// The allocator counts grants, denials and budget utilization for
	// every cost table, but the three-level unit reported no grants and
	// neither unit its denials or utilization. Reporting them would change
	// cached results under unchanged keys, so it waits for a model version
	// in the cache key (ROADMAP, "The result cache"), which removes this
	// condition.
	if len(r.alloc.Costs()) == 2 {
		st.AccelsGranted = up
	}
	return st
}

// StartTask implements rsu_start_task(cpu, critic): the allocator's task
// start, executed instantly in hardware (§III-B.2).
func (r *RSU) StartTask(core int, critical bool) {
	r.mustBeEnabled()
	r.ops++
	r.apply(r.alloc.Start(core, critical))
}

// EndTask implements rsu_end_task(cpu): release the finishing core's
// budget and hand it to non-accelerated critical tasks, if any.
func (r *RSU) EndTask(core int) {
	r.mustBeEnabled()
	r.ops++
	r.apply(r.alloc.End(core))
}

// SaveContext implements the OS side of a context-switch save (§III-B.3):
// it reads the criticality value (to be stored in the kernel
// thread_struct) and sets No Task, re-scheduling the remaining tasks
// exactly as a task end does.
func (r *RSU) SaveContext(core int) rsm.CritState {
	saved := r.alloc.Crit(core)
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

// apply commits the allocator's moves as instant DVFS requests.
func (r *RSU) apply(moves []rsm.Move) {
	for _, m := range moves {
		r.alloc.Apply(m)
		r.mach.DVFS.Request(m.Core, m.Level)
	}
}

func (r *RSU) mustBeEnabled() {
	if !r.enabled {
		panic("rsu: operation on disabled unit")
	}
}

// ThreeLevelModel returns a power model with the dual-rail points of
// Table I plus an intermediate 1.5 GHz / 0.9 V level, for the multi-level
// extension experiments. The extension is the future work §III leaves
// open ("Extending the proposed ideas to more levels of acceleration is
// left as future work"): the budget becomes a pool of power units.
func ThreeLevelModel() *energy.Model {
	m := energy.Default()
	m.Points = []energy.OperatingPoint{
		{Freq: 1 * sim.Gigahertz, Voltage: 0.8},
		{Freq: 1500 * sim.Megahertz, Voltage: 0.9},
		{Freq: 2 * sim.Gigahertz, Voltage: 1.0},
	}
	return m
}

// ThreeLevelUnitCosts returns the unit costs {0, 1, 2} for the three-level
// model: the mid level's dynamic-power increment over slow (~0.72 W) is
// roughly half the fast level's (~1.7 W), so fast = 2 units, mid = 1.
func ThreeLevelUnitCosts() []int { return []int{0, 1, 2} }
