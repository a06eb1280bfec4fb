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
	r := New(eng, m, rsm.TwoLevelCosts())
	r.Init(budget)
	return eng, m, r
}

// accelerated reports whether the unit holds core above the base level.
func accelerated(r *RSU, core int) bool { return r.Alloc().Level(core) > 0 }

func TestInitEnableDisable(t *testing.T) {
	eng := sim.NewEngine()
	cfg := machine.TableIConfig()
	cfg.Cores = 4
	m := machine.MustNew(eng, cfg)
	r := New(eng, m, rsm.TwoLevelCosts())
	if r.Enabled() {
		t.Fatal("RSU enabled before Init")
	}
	r.Init(2)
	if !r.Enabled() || r.Alloc().Budget() != 2 {
		t.Fatal("Init did not enable")
	}
	r.StartTask(0, true)
	r.Disable()
	if r.Enabled() || r.Alloc().Used() != 0 {
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
	if m.DVFS.Target(0) != energy.Slow || m.DVFS.Target(1) != energy.Fast {
		t.Fatal("DVFS targets wrong")
	}
	// A third critical task finds only critical accelerated: no preemption.
	r.StartTask(2, true)
	if m.DVFS.Target(1) != energy.Fast || m.DVFS.Target(2) != energy.Slow {
		t.Fatal("critical task preempted a critical task")
	}
}

func TestEndTaskRebalances(t *testing.T) {
	_, m, r := newRig(t, 4, 1)
	r.StartTask(0, true)
	r.StartTask(1, true) // waits non-accelerated
	r.EndTask(0)
	if m.DVFS.Target(0) != energy.Slow || m.DVFS.Target(1) != energy.Fast {
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
	if accelerated(r, 1) {
		t.Fatal("non-critical waiter boosted on task end")
	}
	if r.Alloc().Used() != 0 {
		t.Fatalf("used = %d", r.Alloc().Used())
	}
}

func TestReset(t *testing.T) {
	_, m, r := newRig(t, 4, 2)
	r.StartTask(0, true)
	r.StartTask(1, false)
	r.Reset()
	if r.Alloc().Used() != 0 {
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
	if accelerated(r, 0) || r.ReadCritic(0) != rsm.NoTask {
		t.Fatal("SaveContext did not release the core")
	}
	r.RestoreContext(0, saved)
	if !accelerated(r, 0) || r.ReadCritic(0) != rsm.Critical {
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

// TestRSUBudgetInvariantProperty: under any interleaving of start, end,
// save and restore operations, for the paper's two-level costs, the
// three-level extension's and a table whose steps cost more than one
// unit, the unit holds no more than its budget, its units are the sum of
// its cores' level costs, and every core's DVFS target is its level.
// After every operation no critical core can step up with the free
// units, so an end on a core at the base level moves nothing: the
// invariant that lets the allocator skip the scan there.
func TestRSUBudgetInvariantProperty(t *testing.T) {
	for _, tc := range []struct {
		name  string
		costs []int
		model func() *energy.Model
	}{
		{"two-level", rsm.TwoLevelCosts(), energy.Default},
		{"three-level", ThreeLevelUnitCosts(), ThreeLevelModel},
		{"uneven-steps", []int{0, 2, 3}, ThreeLevelModel},
	} {
		t.Run(tc.name, func(t *testing.T) {
			top := len(tc.costs) - 1
			f := func(seed uint64) bool {
				rng := xrand.New(seed)
				cores := 2 + rng.Intn(8)
				eng := sim.NewEngine()
				cfg := machine.TableIConfig()
				cfg.Cores = cores
				cfg.Power = tc.model()
				cfg.SlowLevel, cfg.FastLevel = 0, energy.Level(top)
				m := machine.MustNew(eng, cfg)
				r := New(eng, m, tc.costs)
				r.Init(rng.Intn(cores*tc.costs[top] + 1))
				a := r.Alloc()

				running := make([]bool, cores)
				saved := make([]rsm.CritState, cores)
				hasSaved := make([]bool, cores)
				for op := 0; op < 200; op++ {
					core := rng.Intn(cores)
					up, down, _ := a.Counts()
					atBase := a.Level(core) == 0
					ended := false
					switch rng.Intn(4) {
					case 0:
						if !running[core] {
							r.StartTask(core, rng.Bool(0.5))
							running[core] = true
						}
					case 1:
						if running[core] {
							r.EndTask(core)
							running[core], ended = false, true
						}
					case 2:
						if running[core] && !hasSaved[core] {
							saved[core] = r.SaveContext(core)
							running[core], hasSaved[core], ended = false, true, true
						}
					case 3:
						if hasSaved[core] && !running[core] {
							r.RestoreContext(core, saved[core])
							running[core], hasSaved[core] = true, false
						}
					}
					if u, d, _ := a.Counts(); ended && atBase && (u != up || d != down) {
						t.Logf("seed %d: an end at the base level moved %d cores", seed, u-up+d-down)
						return false
					}
					sum := 0
					for i := 0; i < cores; i++ {
						l := a.Level(i)
						sum += tc.costs[l]
						if m.DVFS.Target(i) != l {
							t.Logf("seed %d: core %d at level %d, DVFS target %d", seed, i, l, m.DVFS.Target(i))
							return false
						}
						free := a.Budget() - a.Used()
						if a.Crit(i) == rsm.Critical && int(l) < top && free >= tc.costs[l+1]-tc.costs[l] {
							t.Logf("seed %d: critical core %d at level %d could step up with %d free units", seed, i, l, free)
							return false
						}
					}
					if sum != a.Used() || a.Used() > a.Budget() {
						t.Logf("seed %d: %d units held, levels cost %d, budget %d", seed, a.Used(), sum, a.Budget())
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
