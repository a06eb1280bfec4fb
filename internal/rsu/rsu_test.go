package rsu

import (
	"strings"
	"testing"
	"testing/quick"

	"cata/internal/energy"
	"cata/internal/machine"
	"cata/internal/rsm"
	"cata/internal/sim"
	"cata/internal/xrand"
)

func newRig(t *testing.T, cores, budget int) (*sim.Engine, *machine.Machine, *RSU) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := machine.TableIConfig()
	cfg.Cores = cores
	m, err := machine.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := New(eng, m)
	r.Init(budget)
	return eng, m, r
}

func TestInitEnableDisable(t *testing.T) {
	eng := sim.NewEngine()
	cfg := machine.TableIConfig()
	cfg.Cores = 4
	m := machine.MustNew(eng, cfg)
	r := New(eng, m)
	if r.Enabled() {
		t.Fatal("RSU enabled before Init")
	}
	r.Init(2)
	if !r.Enabled() || r.Budget() != 2 {
		t.Fatal("Init did not enable")
	}
	r.StartTask(0, true)
	r.Disable()
	if r.Enabled() || r.AcceleratedCount() != 0 {
		t.Fatal("Disable did not reset")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("op on disabled RSU did not panic")
		}
	}()
	r.StartTask(0, true)
}

func TestStartTaskAcceleratesWithinBudget(t *testing.T) {
	_, m, r := newRig(t, 4, 2)
	r.StartTask(0, false)
	if !r.Accelerated(0) {
		t.Fatal("budget available but not accelerated")
	}
	if m.DVFS.Target(0) != energy.Fast {
		t.Fatal("DVFS target not updated")
	}
	if r.ReadCritic(0) != rsm.NonCritical {
		t.Fatalf("ReadCritic = %v", r.ReadCritic(0))
	}
}

func TestCriticalPreemption(t *testing.T) {
	_, m, r := newRig(t, 4, 1)
	r.StartTask(0, false)
	r.StartTask(1, true)
	if r.Accelerated(0) || !r.Accelerated(1) {
		t.Fatal("critical preemption failed")
	}
	if m.DVFS.Target(0) != energy.Slow || m.DVFS.Target(1) != energy.Fast {
		t.Fatal("DVFS targets wrong")
	}
	// A third critical task finds only critical accelerated: no preemption.
	r.StartTask(2, true)
	if r.Accelerated(2) {
		t.Fatal("critical task preempted a critical task")
	}
}

func TestEndTaskRebalances(t *testing.T) {
	_, _, r := newRig(t, 4, 1)
	r.StartTask(0, true)
	r.StartTask(1, true) // waits non-accelerated
	r.EndTask(0)
	if r.Accelerated(0) || !r.Accelerated(1) {
		t.Fatal("EndTask did not hand budget to waiting critical")
	}
	if r.ReadCritic(0) != rsm.NoTask {
		t.Fatalf("ReadCritic(0) = %v", r.ReadCritic(0))
	}
	if r.Ops() != 3 {
		t.Fatalf("Ops = %d", r.Ops())
	}
}

func TestEndTaskNonCriticalWaiterNotBoosted(t *testing.T) {
	_, _, r := newRig(t, 4, 1)
	r.StartTask(0, true)
	r.StartTask(1, false) // non-critical waiter
	r.EndTask(0)
	// §III-A: freed budget goes only to non-accelerated *critical* tasks.
	if r.Accelerated(1) {
		t.Fatal("non-critical waiter boosted on task end")
	}
	if r.AcceleratedCount() != 0 {
		t.Fatalf("count = %d", r.AcceleratedCount())
	}
}

func TestReset(t *testing.T) {
	_, m, r := newRig(t, 4, 2)
	r.StartTask(0, true)
	r.StartTask(1, false)
	r.Reset()
	if r.AcceleratedCount() != 0 {
		t.Fatal("Reset left accelerated cores")
	}
	for i := 0; i < 4; i++ {
		if r.ReadCritic(i) != rsm.NoTask {
			t.Fatalf("ReadCritic(%d) = %v after Reset", i, r.ReadCritic(i))
		}
	}
	if m.DVFS.Target(0) != energy.Slow {
		t.Fatal("Reset did not decelerate")
	}
}

func TestVirtualizationSaveRestore(t *testing.T) {
	_, _, r := newRig(t, 4, 2)
	r.StartTask(0, true)
	saved := r.SaveContext(0) // preemption: criticality saved, slot freed
	if saved != rsm.Critical {
		t.Fatalf("saved = %v", saved)
	}
	if r.Accelerated(0) || r.ReadCritic(0) != rsm.NoTask {
		t.Fatal("SaveContext did not release the core")
	}
	r.RestoreContext(0, saved)
	if !r.Accelerated(0) || r.ReadCritic(0) != rsm.Critical {
		t.Fatal("RestoreContext did not reinstate the task")
	}
	// Restoring an idle thread is a no-op.
	r.RestoreContext(1, rsm.NoTask)
	if r.ReadCritic(1) != rsm.NoTask {
		t.Fatal("NoTask restore changed state")
	}
}

func TestRSUOpsAreInstant(t *testing.T) {
	eng, _, r := newRig(t, 4, 2)
	before := eng.Now()
	r.StartTask(0, true)
	r.EndTask(0)
	if eng.Now() != before {
		t.Fatal("RSU ops consumed simulated time")
	}
	if eng.Pending() == 0 {
		t.Fatal("expected pending DVFS transitions")
	}
}

func TestCostModelMatchesPaperFormula(t *testing.T) {
	c := CostOf(32, 2)
	// 3×32 + log2(32) + 2×log2(2) = 96 + 5 + 2 = 103 bits.
	if c.StorageBits != 103 {
		t.Fatalf("bits = %d, want 103", c.StorageBits)
	}
	// Paper: <0.0001% of a 32-core die, <50 µW.
	if c.DieFraction >= 0.0001/100 {
		t.Fatalf("die fraction = %g, want < 0.0001%%", c.DieFraction)
	}
	if c.PowerWatts >= 50e-6 {
		t.Fatalf("power = %g W, want < 50 µW", c.PowerWatts)
	}
	if !strings.Contains(c.String(), "103 bits") {
		t.Fatalf("String() = %q", c.String())
	}
	if tbl := CostTable(); !strings.Contains(tbl, "103") {
		t.Fatalf("cost table missing the paper's 32-core point:\n%s", tbl)
	}
}

func TestCostScaling(t *testing.T) {
	small := CostOf(8, 2)
	big := CostOf(64, 4)
	if small.StorageBits >= big.StorageBits {
		t.Fatal("cost not monotonic in cores")
	}
	// 3×8 + 3 + 2×1 = 29; 3×64 + 6 + 2×2 = 202.
	if small.StorageBits != 29 || big.StorageBits != 202 {
		t.Fatalf("bits = %d/%d, want 29/202", small.StorageBits, big.StorageBits)
	}
}

func TestCostPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CostOf(0, 2) did not panic")
		}
	}()
	CostOf(0, 2)
}

// Property: under any interleaving of start/end/save/restore operations,
// the accelerated count never exceeds the budget and matches the DVFS
// committed-fast count.
func TestRSUBudgetInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		cores := 2 + rng.Intn(8)
		budget := rng.Intn(cores + 1)
		_, m, r := func() (*sim.Engine, *machine.Machine, *RSU) {
			eng := sim.NewEngine()
			cfg := machine.TableIConfig()
			cfg.Cores = cores
			m := machine.MustNew(eng, cfg)
			r := New(eng, m)
			r.Init(budget)
			return eng, m, r
		}()
		running := make([]bool, cores)
		saved := make([]rsm.CritState, cores)
		hasSaved := make([]bool, cores)
		for op := 0; op < 200; op++ {
			core := rng.Intn(cores)
			switch rng.Intn(4) {
			case 0:
				if !running[core] {
					r.StartTask(core, rng.Bool(0.5))
					running[core] = true
				}
			case 1:
				if running[core] {
					r.EndTask(core)
					running[core] = false
				}
			case 2:
				if running[core] && !hasSaved[core] {
					saved[core] = r.SaveContext(core)
					hasSaved[core] = true
					running[core] = false
				}
			case 3:
				if hasSaved[core] && !running[core] {
					r.RestoreContext(core, saved[core])
					hasSaved[core] = false
					running[core] = saved[core] != rsm.NoTask
				}
			}
			if r.AcceleratedCount() > budget {
				return false
			}
			if r.AcceleratedCount() != m.DVFS.CommittedFast() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
