package rsu

import (
	"testing"

	"cata/internal/machine"
	"cata/internal/sim"
)

// threeLevelMachine returns a machine on the three-level model, fast at
// the top level.
func threeLevelMachine(t *testing.T, eng *sim.Engine, cores int) *machine.Machine {
	t.Helper()
	cfg := machine.TableIConfig()
	cfg.Cores = cores
	cfg.Power = ThreeLevelModel()
	cfg.SlowLevel = 0
	cfg.FastLevel = 2
	m, err := machine.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mlRig(t *testing.T, cores, unitBudget int) (*sim.Engine, *machine.Machine, *RSU) {
	t.Helper()
	eng := sim.NewEngine()
	m := threeLevelMachine(t, eng, cores)
	ml := New(eng, m, ThreeLevelUnitCosts())
	ml.Init(unitBudget)
	return eng, m, ml
}

func TestThreeLevelModel(t *testing.T) {
	pm := ThreeLevelModel()
	if pm.Levels() != 3 {
		t.Fatalf("levels = %d", pm.Levels())
	}
	if err := pm.Validate(); err != nil {
		t.Fatal(err)
	}
	mid := pm.Point(1)
	if mid.Freq != 1500*sim.Megahertz || mid.Voltage != 0.9 {
		t.Fatalf("mid point = %v", mid)
	}
}

func TestMLGrantsHighestAffordable(t *testing.T) {
	_, m, ml := mlRig(t, 4, 3)
	a := ml.Alloc()
	ml.StartTask(0, false) // fast costs 2, affordable
	if a.Level(0) != 2 || a.Used() != 2 {
		t.Fatalf("level=%d units=%d, want fast/2", a.Level(0), a.Used())
	}
	ml.StartTask(1, false) // only 1 unit left: mid
	if a.Level(1) != 1 || a.Used() != 3 {
		t.Fatalf("level=%d units=%d, want mid/3", a.Level(1), a.Used())
	}
	ml.StartTask(2, false) // nothing left: slow
	if a.Level(2) != 0 {
		t.Fatalf("level = %d, want slow", a.Level(2))
	}
	if m.DVFS.Target(0) != 2 || m.DVFS.Target(1) != 1 {
		t.Fatal("DVFS targets not driven")
	}
}

func TestMLCriticalPreemptsStepwise(t *testing.T) {
	_, _, ml := mlRig(t, 4, 2)
	a := ml.Alloc()
	ml.StartTask(0, false) // non-critical takes fast (2 units)
	ml.StartTask(1, true)  // critical: shave core 0 down, claim what frees
	if a.Level(1) == 0 {
		t.Fatal("critical task got nothing despite a non-critical victim")
	}
	if a.Used() > a.Budget() {
		t.Fatal("budget exceeded")
	}
	// Core 0 must have been downgraded below fast.
	if a.Level(0) == 2 {
		t.Fatal("victim untouched")
	}
}

func TestMLCriticalDoesNotPreemptCritical(t *testing.T) {
	_, _, ml := mlRig(t, 4, 2)
	a := ml.Alloc()
	ml.StartTask(0, true) // critical at fast
	ml.StartTask(1, true) // no victims: slow
	if a.Level(0) != 2 || a.Level(1) != 0 {
		t.Fatalf("levels = %d/%d", a.Level(0), a.Level(1))
	}
}

func TestMLEndRebalancesToStarvedCritical(t *testing.T) {
	_, _, ml := mlRig(t, 4, 2)
	a := ml.Alloc()
	ml.StartTask(0, false) // fast
	ml.StartTask(1, true)  // preempts stepwise: gets something, core 0 shaved
	ml.StartTask(2, true)  // whatever is left
	ml.EndTask(0)          // non-critical leaves: criticals get upgraded
	costs := ThreeLevelUnitCosts()
	if totalCrit := costs[a.Level(1)] + costs[a.Level(2)]; totalCrit != a.Budget() {
		t.Fatalf("freed units not fully redistributed: levels %d/%d",
			a.Level(1), a.Level(2))
	}
	if a.Used() > a.Budget() {
		t.Fatal("budget exceeded")
	}
}

func TestMLValidatesConstruction(t *testing.T) {
	eng := sim.NewEngine()
	m := threeLevelMachine(t, eng, 2)
	for _, costs := range [][]int{
		{0, 1},    // wrong length
		{1, 2, 3}, // nonzero baseline
		{0, 2, 1}, // decreasing
		{0, 1, 1}, // not strictly increasing
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("costs %v accepted", costs)
				}
			}()
			New(eng, m, costs)
		}()
	}
}
