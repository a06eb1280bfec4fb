package rts

import (
	"testing"

	"cata/internal/cpufreq"
	"cata/internal/machine"
	"cata/internal/rsm"
	"cata/internal/rsu"
	"cata/internal/sim"
	"cata/internal/tdg"
	"cata/internal/turbo"
	"cata/internal/xrand"
)

// keepBusy gives each core an empty segment, so it stays in the
// runtime's busy state (no idle demotion) and can issue operations, as a
// worker in its dispatch path can.
func keepBusy(m *machine.Machine) {
	noop := func() {}
	for i := 0; i < m.Cores(); i++ {
		m.Core(i).Exec(0, 0, noop)
	}
}

// zeroAllocs requires that op, once warmed up, allocates nothing: over
// 100 runs, AllocsPerRun's integer average hides fewer than one
// allocation per run.
func zeroAllocs(t *testing.T, name string, op func()) {
	t.Helper()
	for i := 0; i < 10; i++ {
		op() // grow the engine's arena and the locks' queues to their peaks
	}
	if got := testing.AllocsPerRun(100, op); got != 0 {
		t.Errorf("%s: %v allocations per operation, want 0", name, got)
	}
}

// TestReconfigZeroAllocs: a steady-state reconfiguration allocates
// nothing. Each module keeps one operation record per core with its step
// callback bound at construction, so the runtime lock, the cpufreq write
// path, the DVFS transition, the RSU instruction and TurboMode's halt
// handoff hand the engine no closure.
func TestReconfigZeroAllocs(t *testing.T) {
	critical, plain := &tdg.Task{Critical: true}, &tdg.Task{}
	var done int
	doneCb := func() { done++ }

	t.Run("rsm", func(t *testing.T) {
		// A budget of one: core 0 takes it, critical core 1 swaps it away
		// (two cpufreq writes), and both ends hand it back. Every write
		// kicks a DVFS transition; the kernel housekeeping window runs
		// under the same driver lock.
		eng, m := newMachine(t, 4)
		keepBusy(m)
		eng.Run()
		rc := RSMReconfig{RSM: rsm.New(eng, m, cpufreq.New(eng, m, cpufreq.DefaultCosts()), 1)}
		zeroAllocs(t, "RSM through cpufreq and DVFS", func() {
			rc.TaskStart(0, plain, doneCb)
			eng.Run()
			rc.TaskStart(1, critical, doneCb)
			eng.Run()
			rc.TaskEnd(1, critical, doneCb)
			rc.TaskEnd(0, plain, doneCb)
			eng.Run()
		})
		if accels, _, _ := rc.RSM.Alloc().Counts(); accels == 0 || m.DVFS.Transitions() == 0 {
			t.Fatalf("no reconfiguration happened: %d accelerations, %d transitions", accels, m.DVFS.Transitions())
		}
	})

	t.Run("rsu", func(t *testing.T) {
		eng, m := newMachine(t, 4)
		keepBusy(m)
		eng.Run()
		unit := rsu.New(eng, m, rsm.TwoLevelCosts())
		unit.Init(1)
		rc := NewRSUReconfig(unit, m, 4)
		zeroAllocs(t, "RSUReconfig", func() {
			rc.TaskStart(0, plain, doneCb)
			rc.TaskStart(1, critical, doneCb)
			eng.Run()
			rc.TaskEnd(1, critical, doneCb)
			rc.TaskEnd(0, plain, doneCb)
			eng.Run()
		})
		if accels, _, _ := unit.Alloc().Counts(); accels == 0 {
			t.Fatal("the RSU never accelerated")
		}
	})

	t.Run("turbo", func(t *testing.T) {
		// The core holding the budget halts in a kernel service; after
		// the decision latency the budget lands on a random active core.
		eng, m := newMachine(t, 4)
		keepBusy(m)
		eng.Run()
		c := turbo.New(eng, m, 1, xrand.New(42))
		c.Start()
		zeroAllocs(t, "TurboMode's halt handoff", func() {
			for i := 0; i < m.Cores(); i++ {
				if c.Accelerated(i) {
					m.Core(i).HaltFor(sim.Millisecond, doneCb)
					break
				}
			}
			eng.Run()
		})
		if c.Reassigns() == 0 {
			t.Fatal("no halt handoff happened")
		}
	})

	if done == 0 {
		t.Fatal("no operation completed")
	}
}
