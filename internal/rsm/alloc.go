package rsm

import (
	"fmt"

	"cata/internal/energy"
	"cata/internal/probe"
	"cata/internal/sim"
)

// Move is one core's change of operating level: From is the level the
// core holds when the move is applied, Level the level it moves to.
type Move struct {
	Core  int
	From  energy.Level
	Level energy.Level
}

// Alloc is the §III-A acceleration allocator, the one decision procedure
// behind the software RSM and the hardware RSU. It keeps the
// criticality and level of every core and a budget of power units;
// running a core at level l costs costs[l] units, level 0 is free.
//
//   - A task start takes the highest level the free units afford, even
//     for a non-critical task. A critical task that finds too few free
//     units lowers non-critical cores, the highest first, one level at a
//     time, until its grant fits.
//   - A task end frees the core's units and lifts the lowest critical
//     core one level at a time while the free units afford a step.
//
// With costs {0, 1} and a budget of n units this is the paper's
// two-level algorithm with n fast cores: the victim is the lowest-index
// accelerated core running a non-critical task, and freed budget goes to
// the lowest-index critical core running slow.
//
// Start and End decide and change no level; they return the moves in
// the order a mechanism performs them, and the mechanism commits each
// with Apply when it takes effect. The RSU applies them at once; the RSM
// applies each when its cpufreq write is issued, so the units-held
// integral and the grant instants follow the writes.
type Alloc struct {
	eng    *sim.Engine
	costs  []int // units per energy.Level; costs[0] == 0, strictly increasing
	budget int
	used   int

	crit  []CritState
	level []energy.Level

	// moves is the buffer Start, End and Reset return.
	moves []Move

	upgrades, downgrades, denials int64

	// unitTime integrates the units held over simulated time up to mark.
	unitTime sim.Time
	mark     sim.Time

	// rec, when non-nil, receives grant and denial events with the units
	// held and the budget.
	rec probe.Recorder
}

// TwoLevelCosts returns the unit costs {0, 1} of the paper's dual-rail
// machine: an accelerated core holds one unit, so a budget of n units is
// n fast cores.
func TwoLevelCosts() []int { return []int{0, 1} }

// NewAlloc returns an allocator for cores cores with the given unit
// costs, indexed by energy.Level, and a budget of zero units. It panics
// unless level 0 costs nothing and costs strictly increase.
func NewAlloc(eng *sim.Engine, cores int, costs []int) *Alloc {
	if len(costs) < 2 || costs[0] != 0 {
		panic(fmt.Sprintf("rsm: unit costs %v: need at least two levels, the first costing 0", costs))
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] <= costs[i-1] {
			panic(fmt.Sprintf("rsm: unit costs %v do not strictly increase", costs))
		}
	}
	return &Alloc{
		eng:   eng,
		costs: costs,
		crit:  make([]CritState, cores),
		level: make([]energy.Level, cores),
		moves: make([]Move, 0, cores*(len(costs)-1)+1),
	}
}

// SetBudget sets the power budget in units. It panics if units is
// negative or more than every core at the top level would hold.
func (a *Alloc) SetBudget(units int) {
	if limit := len(a.crit) * a.costs[a.top()]; units < 0 || units > limit {
		panic(fmt.Sprintf("rsm: budget %d out of range [0,%d]", units, limit))
	}
	a.budget = units
}

// SetRecorder attaches a flight recorder reporting grants and denials
// with the units held and the budget.
func (a *Alloc) SetRecorder(rec probe.Recorder) { a.rec = rec }

// Budget returns the power budget in units.
func (a *Alloc) Budget() int { return a.budget }

// Used returns the units held; it never exceeds Budget.
func (a *Alloc) Used() int { return a.used }

// Costs returns the unit cost of each level.
func (a *Alloc) Costs() []int { return a.costs }

// Level returns the level a core holds.
func (a *Alloc) Level(core int) energy.Level { return a.level[core] }

// Crit returns the criticality of the task a core runs.
func (a *Alloc) Crit(core int) CritState { return a.crit[core] }

// Counts returns the level moves applied upwards and downwards, and the
// task starts that got no move.
func (a *Alloc) Counts() (upgrades, downgrades, denials int64) {
	return a.upgrades, a.downgrades, a.denials
}

// UnitTime returns the integral of the units held over simulated time
// so far. Divided by budget × makespan it is the budget utilization.
func (a *Alloc) UnitTime() sim.Time {
	return a.unitTime + sim.Time(a.used)*(a.eng.Now()-a.mark)
}

// Start records that core begins a task of the given criticality and
// returns the moves that grant it acceleration. A Start that returns no
// moves is a denial: it is counted and reported to the recorder. The
// slice is valid until the next Start, End or Reset.
func (a *Alloc) Start(core int, critical bool) []Move {
	a.crit[core] = NonCritical
	if critical {
		a.crit[core] = Critical
	}
	a.moves = a.moves[:0]
	a.grant(core, critical)
	a.undo()
	if len(a.moves) == 0 {
		a.denials++
		if a.rec != nil {
			a.rec.AccelDeny(a.eng.Now(), core, critical, a.used, a.budget)
		}
	}
	return a.moves
}

// End records that core's task finished and returns the moves that
// release its units and hand them to critical cores. A core at level 0
// frees nothing, and after every Start, End and Reset no critical core
// can step up with the free units, so its End returns no moves without
// a scan.
func (a *Alloc) End(core int) []Move {
	a.crit[core] = NoTask
	a.moves = a.moves[:0]
	if a.level[core] == 0 {
		return a.moves
	}
	a.plan(core, 0)
	a.rebalance()
	a.undo()
	return a.moves
}

// Reset clears every core's criticality and returns the moves that take
// every core to level 0, in core order.
func (a *Alloc) Reset() []Move {
	a.moves = a.moves[:0]
	for i := range a.crit {
		a.crit[i] = NoTask
		if a.level[i] > 0 {
			a.moves = append(a.moves, Move{Core: i, From: a.level[i]})
		}
	}
	return a.moves
}

// Apply commits one move: the core's level, the units held and their
// time integral, the move counts and, for an upgrade, the grant event.
func (a *Alloc) Apply(m Move) {
	if a.level[m.Core] != m.From {
		panic(fmt.Sprintf("rsm: move of core %d from level %d, which holds %d", m.Core, m.From, a.level[m.Core]))
	}
	now := a.eng.Now()
	a.unitTime += sim.Time(a.used) * (now - a.mark)
	a.mark = now
	a.used += a.costs[m.Level] - a.costs[m.From]
	if a.used > a.budget {
		panic(fmt.Sprintf("rsm: budget exceeded: %d > %d", a.used, a.budget))
	}
	a.level[m.Core] = m.Level
	if m.Level < m.From {
		a.downgrades++
		return
	}
	a.upgrades++
	if a.rec != nil {
		a.rec.AccelGrant(now, m.Core, a.crit[m.Core] == Critical, a.used, a.budget)
	}
}

// grant plans a starting core's acceleration: the highest level the free
// units afford; for a critical task, non-critical cores are lowered one
// level at a time until a level fits.
func (a *Alloc) grant(core int, critical bool) {
	for lvl := a.top(); lvl > 0; lvl-- {
		if a.free() >= a.costs[lvl] {
			a.plan(core, lvl)
			return
		}
	}
	if !critical {
		return
	}
	for lvl := a.top(); lvl > 0; lvl-- {
		for a.free() < a.costs[lvl] {
			victim := a.victim()
			if victim < 0 {
				break
			}
			a.plan(victim, a.level[victim]-1)
		}
		if a.free() >= a.costs[lvl] {
			a.plan(core, lvl)
			break
		}
	}
	// Where a step costs more than one unit, lowering a victim can free
	// more than the grant takes; the rest goes to critical cores as at a
	// task end. With unit steps nothing is left and this does not scan.
	a.rebalance()
}

// rebalance plans upgrades while units are free: each round lifts the
// lowest-level critical core that can afford a step by one level, the
// lowest index among equals.
func (a *Alloc) rebalance() {
	top := a.top()
	for a.used < a.budget {
		best := -1
		for i, l := range a.level {
			if a.crit[i] != Critical || l == top || a.free() < a.costs[l+1]-a.costs[l] {
				continue
			}
			if best < 0 || l < a.level[best] {
				best = i
			}
		}
		if best < 0 {
			return
		}
		a.plan(best, a.level[best]+1)
	}
}

// victim returns the non-critical core at the highest level above 0,
// the lowest index among equals, or -1.
func (a *Alloc) victim() int {
	best := -1
	for i, l := range a.level {
		if a.crit[i] == NonCritical && l > 0 && (best < 0 || l > a.level[best]) {
			best = i
		}
	}
	return best
}

// plan records a move and makes it in the table, so later decisions of
// the same operation see it; undo takes the planned moves back.
func (a *Alloc) plan(core int, lvl energy.Level) {
	a.moves = append(a.moves, Move{Core: core, From: a.level[core], Level: lvl})
	a.used += a.costs[lvl] - a.costs[a.level[core]]
	a.level[core] = lvl
}

// undo reverts the planned moves, leaving the table as Apply expects it.
func (a *Alloc) undo() {
	for i := len(a.moves) - 1; i >= 0; i-- {
		m := a.moves[i]
		a.used -= a.costs[m.Level] - a.costs[m.From]
		a.level[m.Core] = m.From
	}
}

func (a *Alloc) free() int { return a.budget - a.used }

func (a *Alloc) top() energy.Level { return energy.Level(len(a.costs) - 1) }
