// Package turbo implements the TurboMode comparator of §V-D, following the
// dynamic TurboMode management of Lo & Kozyrakis [18] restricted to the
// paper's two frequency levels and fast-core power budget.
//
// TurboMode is criticality-blind: the scheduler underneath is plain FIFO,
// and the hardware microcontroller reassigns the acceleration budget on
// ACPI C-state edges only. When an accelerated core executes `halt`
// (C0→C1) the controller decelerates it and accelerates a randomly
// selected active core; when a core wakes it is accelerated only if budget
// remains. Because decisions key off `halt`, the controller reclaims
// budget from cores blocked in kernel services (the advantage over CATA
// observed in §V-D) but may accelerate non-critical work or runtime idle
// loops (its weakness).
package turbo

import (
	"fmt"

	"cata/internal/machine"
	"cata/internal/probe"
	"cata/internal/sim"
	"cata/internal/stats"
	"cata/internal/xrand"
)

// Controller is the TurboMode microcontroller. It attaches to the
// machine's halt/wake notifications. A halting core yields its budget
// immediately, but the firmware's victim selection takes DecisionLatency
// to land (power-state table walks in the management controller, [18]
// reports TurboMode decisions at hundreds of microseconds); waking cores
// are boosted immediately if budget remains. The physical V/f transition
// latency applies on top.
type Controller struct {
	eng  *sim.Engine
	mach *machine.Machine
	rng  *xrand.Source

	budget int
	accel  []bool
	nAccel int

	// DecisionLatency delays halt-triggered budget handoffs. Default
	// 150 µs; this sluggishness relative to the RSU's task-edge-exact
	// reconfiguration is TurboMode's handicap on pipeline workloads
	// (§V-D).
	DecisionLatency sim.Time

	reassigns  int64
	wakeBoosts int64
}

// New creates a TurboMode controller with the given fast-core budget and
// registers it on the machine's halt/wake hooks. rng drives the random
// victim selection of [18].
func New(eng *sim.Engine, mach *machine.Machine, budget int, rng *xrand.Source) *Controller {
	if budget < 0 || budget > mach.Cores() {
		panic(fmt.Sprintf("turbo: budget %d out of range [0,%d]", budget, mach.Cores()))
	}
	c := &Controller{
		eng:             eng,
		mach:            mach,
		rng:             rng,
		budget:          budget,
		accel:           make([]bool, mach.Cores()),
		DecisionLatency: 150 * sim.Microsecond,
	}
	mach.OnHalt(c.onHalt)
	mach.OnWake(c.onWake)
	return c
}

// Start performs the boot-time assignment: every active core is assumed to
// run critical work (§V-D), so the first `budget` cores are accelerated.
func (c *Controller) Start() {
	for i := 0; i < c.mach.Cores() && c.nAccel < c.budget; i++ {
		if c.mach.Core(i).Active() {
			c.accelerate(i)
		}
	}
}

// Budget returns the fast-core budget.
func (c *Controller) Budget() int { return c.budget }

// Accelerated reports whether a core currently holds budget.
func (c *Controller) Accelerated(core int) bool { return c.accel[core] }

// AcceleratedCount returns how many cores hold budget (always <= Budget).
func (c *Controller) AcceleratedCount() int { return c.nAccel }

// Reassigns returns how many halt-triggered budget handoffs occurred.
func (c *Controller) Reassigns() int64 { return c.reassigns }

// WakeBoosts returns how many wakes were granted leftover budget.
func (c *Controller) WakeBoosts() int64 { return c.wakeBoosts }

// SetRecorder is a no-op: the controller's handoffs reach a flight
// recording as the machine's own DVFS events.
func (c *Controller) SetRecorder(probe.Recorder) {}

// Harvest reports the halt-driven budget handoffs.
func (c *Controller) Harvest(st stats.Reconfig, _ sim.Time) stats.Reconfig {
	st.TurboReassigns = c.reassigns
	return st
}

// onHalt: an accelerated core halting yields its budget to a random
// active core ("lowers the frequency of the core, selects a random active
// core, and accelerates it"). The deceleration is immediate; the handoff
// fires after the firmware's decision latency and re-validates the budget
// (a waking core may have legitimately claimed it in the meantime).
func (c *Controller) onHalt(core int) {
	if !c.accel[core] {
		return
	}
	c.decelerate(core)
	c.eng.After(c.DecisionLatency, func() {
		if c.nAccel >= c.budget {
			return
		}
		if victim := c.pickActive(); victim >= 0 {
			c.accelerate(victim)
			c.reassigns++
		}
	})
}

// onWake: "the core is accelerated only if there is enough power budget".
func (c *Controller) onWake(core int) {
	if c.accel[core] || c.nAccel >= c.budget {
		return
	}
	c.accelerate(core)
	c.wakeBoosts++
}

// pickActive returns a uniformly random active (C0), non-accelerated core,
// or -1 if none exists.
func (c *Controller) pickActive() int {
	var candidates []int
	for i := 0; i < c.mach.Cores(); i++ {
		if !c.accel[i] && c.mach.Core(i).Active() {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[c.rng.Intn(len(candidates))]
}

func (c *Controller) accelerate(core int) {
	if c.accel[core] {
		panic(fmt.Sprintf("turbo: double accelerate of core %d", core))
	}
	c.accel[core] = true
	c.nAccel++
	if c.nAccel > c.budget {
		panic(fmt.Sprintf("turbo: budget exceeded: %d > %d", c.nAccel, c.budget))
	}
	c.mach.DVFS.Request(core, c.mach.Cfg.FastLevel)
}

func (c *Controller) decelerate(core int) {
	if !c.accel[core] {
		panic(fmt.Sprintf("turbo: decelerate of non-accelerated core %d", core))
	}
	c.accel[core] = false
	c.nAccel--
	c.mach.DVFS.Request(core, c.mach.Cfg.SlowLevel)
}
