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

// MultiLevel generalizes the RSU to more than two acceleration levels —
// the extension §III explicitly leaves as future work ("Extending the
// proposed ideas to more levels of acceleration is left as future work").
//
// The power budget becomes a pool of power units; each operating level
// has a unit cost approximating its dynamic-power increment over the slow
// level. The allocation algorithm keeps the paper's structure:
//
//   - task start: grant the highest affordable level (even to non-critical
//     tasks, as in §III-A); a critical task may downgrade non-critical
//     cores one level at a time until its grant fits;
//   - task end: release the core's units and spend freed units upgrading
//     the most-starved critical cores.
//
// The invariant UnitsUsed <= UnitBudget replaces the two-level
// "accelerated cores <= budget".
type MultiLevel struct {
	eng  *sim.Engine
	mach *machine.Machine

	enabled    bool
	unitBudget int
	unitsUsed  int
	unitCost   []int // indexed by energy.Level

	crit  []rsm.CritState
	level []energy.Level

	ops, upgrades, downgrades int64
}

// NewMultiLevel creates a disabled multi-level unit. unitCost[l] is the
// budget cost of running a core at level l; unitCost[0] must be 0 (the
// baseline level is free). Call Init before use.
func NewMultiLevel(eng *sim.Engine, mach *machine.Machine, unitCost []int) *MultiLevel {
	if len(unitCost) != mach.Cfg.Power.Levels() {
		panic(fmt.Sprintf("rsu: unit costs for %d levels, machine has %d",
			len(unitCost), mach.Cfg.Power.Levels()))
	}
	if unitCost[0] != 0 {
		panic("rsu: baseline level must cost 0 units")
	}
	for i := 1; i < len(unitCost); i++ {
		if unitCost[i] < unitCost[i-1] {
			panic("rsu: unit costs must be non-decreasing with level")
		}
	}
	return &MultiLevel{
		eng:      eng,
		mach:     mach,
		unitCost: unitCost,
		crit:     make([]rsm.CritState, mach.Cores()),
		level:    make([]energy.Level, mach.Cores()),
	}
}

// Init enables the unit with the given power-unit budget.
func (m *MultiLevel) Init(unitBudget int) {
	if unitBudget < 0 {
		panic("rsu: negative unit budget")
	}
	m.unitBudget = unitBudget
	m.enabled = true
}

// Enabled reports whether the unit accepts operations.
func (m *MultiLevel) Enabled() bool { return m.enabled }

// UnitBudget returns the configured pool size.
func (m *MultiLevel) UnitBudget() int { return m.unitBudget }

// UnitsUsed returns the units currently granted; always <= UnitBudget.
func (m *MultiLevel) UnitsUsed() int { return m.unitsUsed }

// Level returns the level the unit has granted to a core.
func (m *MultiLevel) Level(core int) energy.Level { return m.level[core] }

// Ops returns start/end notifications processed.
func (m *MultiLevel) Ops() int64 { return m.ops }

// SetRecorder is a no-op: the unit's level changes reach a flight
// recording as the machine's own DVFS events.
func (m *MultiLevel) SetRecorder(probe.Recorder) {}

// Harvest reports the unit's level moves as reconfiguration operations.
func (m *MultiLevel) Harvest(st stats.Reconfig, _ sim.Time) stats.Reconfig {
	st.ReconfigOps = m.upgrades + m.downgrades
	return st
}

func (m *MultiLevel) free() int { return m.unitBudget - m.unitsUsed }

func (m *MultiLevel) top() energy.Level {
	return energy.Level(len(m.unitCost) - 1)
}

// set moves a core to the given level, maintaining unit accounting and
// driving the DVFS controller.
func (m *MultiLevel) set(core int, lvl energy.Level) {
	cur := m.level[core]
	if cur == lvl {
		return
	}
	m.unitsUsed += m.unitCost[lvl] - m.unitCost[cur]
	if m.unitsUsed > m.unitBudget {
		panic(fmt.Sprintf("rsu: unit budget exceeded: %d > %d", m.unitsUsed, m.unitBudget))
	}
	if lvl > cur {
		m.upgrades++
	} else {
		m.downgrades++
	}
	m.level[core] = lvl
	m.mach.DVFS.Request(core, lvl)
}

// StartTask implements the task-start allocation.
func (m *MultiLevel) StartTask(core int, critical bool) {
	m.mustBeEnabled()
	m.ops++
	cs := rsm.NonCritical
	if critical {
		cs = rsm.Critical
	}
	m.crit[core] = cs

	// Highest affordable level from the free pool.
	for lvl := m.top(); lvl > 0; lvl-- {
		if m.free() >= m.unitCost[lvl] {
			m.set(core, lvl)
			return
		}
	}
	if !critical {
		return
	}
	// Critical with no free units: shave non-critical cores one level at
	// a time, highest level first, until a grant fits (§III-A preemption
	// generalized).
	for lvl := m.top(); lvl > 0; lvl-- {
		for m.free() < m.unitCost[lvl] {
			victim := m.findVictim()
			if victim < 0 {
				break
			}
			m.set(victim, m.level[victim]-1)
		}
		if m.free() >= m.unitCost[lvl] {
			m.set(core, lvl)
			return
		}
	}
}

// EndTask releases the core's grant and spends freed units on the most
// starved critical cores.
func (m *MultiLevel) EndTask(core int) {
	m.mustBeEnabled()
	m.ops++
	m.crit[core] = rsm.NoTask
	m.set(core, 0)
	m.rebalance()
}

// rebalance upgrades critical cores while units remain: each round lifts
// the lowest-level critical core by one level.
func (m *MultiLevel) rebalance() {
	for {
		best := -1
		for i := range m.level {
			if m.crit[i] != rsm.Critical || m.level[i] == m.top() {
				continue
			}
			next := m.level[i] + 1
			if m.free() < m.unitCost[next]-m.unitCost[m.level[i]] {
				continue
			}
			if best < 0 || m.level[i] < m.level[best] {
				best = i
			}
		}
		if best < 0 {
			return
		}
		m.set(best, m.level[best]+1)
	}
}

// findVictim returns the non-critical core at the highest level > 0, or
// -1; lowest index breaks ties (deterministic table scan).
func (m *MultiLevel) findVictim() int {
	best := -1
	for i := range m.level {
		if m.crit[i] != rsm.NonCritical || m.level[i] == 0 {
			continue
		}
		if best < 0 || m.level[i] > m.level[best] {
			best = i
		}
	}
	return best
}

func (m *MultiLevel) mustBeEnabled() {
	if !m.enabled {
		panic("rsu: operation on disabled multi-level unit")
	}
}

// ThreeLevelModel returns a power model with the dual-rail points of
// Table I plus an intermediate 1.5 GHz / 0.9 V level, for the multi-level
// extension experiments.
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
