package rsm

import (
	"testing"
	"testing/quick"

	"cata/internal/cpufreq"
	"cata/internal/energy"
	"cata/internal/machine"
	"cata/internal/probe"
	"cata/internal/sim"
	"cata/internal/xrand"
)

func newRig(t *testing.T, cores, budget int) (*sim.Engine, *machine.Machine, *RSM) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := machine.TableIConfig()
	cfg.Cores = cores
	m, err := machine.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fw := cpufreq.New(eng, m, cpufreq.DefaultCosts())
	return eng, m, New(eng, m, fw, budget)
}

// busy puts a core into the worker-busy context RSM operations require,
// waking it first if it has idle-halted (as the runtime's dispatch path
// does).
func busy(m *machine.Machine, core int, fn func()) {
	c := m.Core(core)
	switch c.State() {
	case machine.Halted, machine.Sleeping:
		c.Wake(func() { c.Exec(0, 0, fn) })
	default:
		c.Exec(0, 0, fn)
	}
}

func TestCritStateString(t *testing.T) {
	if NoTask.String() != "-" || NonCritical.String() != "NC" || Critical.String() != "C" {
		t.Fatal("CritState strings wrong")
	}
}

// newAlloc returns a two-level allocator over cores cores with a budget
// of budget fast cores.
func newAlloc(cores, budget int) *Alloc {
	a := NewAlloc(sim.NewEngine(), cores, TwoLevelCosts())
	a.SetBudget(budget)
	return a
}

// apply commits a decision's moves and returns a copy of them.
func apply(a *Alloc, moves []Move) []Move {
	out := append([]Move(nil), moves...)
	for _, m := range out {
		a.Apply(m)
	}
	return out
}

func wantMoves(t *testing.T, got []Move, want ...Move) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("moves %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("moves %v, want %v", got, want)
		}
	}
}

func wantCounts(t *testing.T, a *Alloc, up, down, denied int64) {
	t.Helper()
	if u, d, n := a.Counts(); u != up || d != down || n != denied {
		t.Fatalf("counts up/down/denied = %d/%d/%d, want %d/%d/%d", u, d, n, up, down, denied)
	}
}

func TestAccelerateWithinBudget(t *testing.T) {
	a := newAlloc(4, 2)
	// Budget available: even a non-critical task is accelerated (§III-A).
	wantMoves(t, apply(a, a.Start(0, false)), Move{Core: 0, From: energy.Slow, Level: energy.Fast})
	if a.Level(0) != energy.Fast || a.Used() != 1 {
		t.Fatalf("level %d, used %d", a.Level(0), a.Used())
	}
	if a.Crit(0) != NonCritical {
		t.Fatalf("crit = %v", a.Crit(0))
	}
	wantCounts(t, a, 1, 0, 0)
}

func TestCriticalPreemptsNonCritical(t *testing.T) {
	a := newAlloc(4, 2)
	apply(a, a.Start(2, false))
	apply(a, a.Start(1, false)) // the budget is gone
	// A critical task takes the slot of the lowest-index accelerated core
	// running a non-critical task: the victim slows first, then the
	// critical core speeds up.
	wantMoves(t, apply(a, a.Start(3, true)),
		Move{Core: 1, From: energy.Fast, Level: energy.Slow},
		Move{Core: 3, From: energy.Slow, Level: energy.Fast})
	if a.Level(1) != energy.Slow || a.Level(2) != energy.Fast || a.Level(3) != energy.Fast || a.Used() != 2 {
		t.Fatalf("levels %d/%d/%d, used %d", a.Level(1), a.Level(2), a.Level(3), a.Used())
	}
	wantCounts(t, a, 3, 1, 0)
}

func TestNonCriticalDoesNotPreempt(t *testing.T) {
	a := newAlloc(4, 1)
	apply(a, a.Start(0, false))
	wantMoves(t, a.Start(1, false))
	if a.Level(0) != energy.Fast || a.Level(1) != energy.Slow {
		t.Fatal("non-critical task must not preempt")
	}
	wantCounts(t, a, 1, 0, 1)
}

func TestAllCriticalNoPreemption(t *testing.T) {
	a := newAlloc(4, 1)
	apply(a, a.Start(0, true))
	// All accelerated cores run critical tasks: the incoming critical task
	// "cannot be accelerated, so it is tagged as non-accelerated".
	wantMoves(t, a.Start(1, true))
	if a.Level(0) != energy.Fast || a.Level(1) != energy.Slow || a.Crit(1) != Critical {
		t.Fatal("critical task preempted another critical task")
	}
	wantCounts(t, a, 1, 0, 1)
}

func TestTaskEndHandsBudgetToWaitingCritical(t *testing.T) {
	a := newAlloc(4, 1)
	apply(a, a.Start(0, true))
	wantMoves(t, a.Start(1, false))
	wantMoves(t, a.Start(2, true))
	wantMoves(t, a.Start(3, true))
	// The freed budget goes to the lowest-index critical core running
	// slow, passing over the non-critical core 1.
	wantMoves(t, apply(a, a.End(0)),
		Move{Core: 0, From: energy.Fast, Level: energy.Slow},
		Move{Core: 2, From: energy.Slow, Level: energy.Fast})
	if a.Crit(0) != NoTask {
		t.Fatalf("crit(0) = %v", a.Crit(0))
	}
	// With no critical core waiting, freed budget stays free (§III-A):
	// the non-critical core 1 is not boosted.
	wantMoves(t, a.End(3))
	wantMoves(t, apply(a, a.End(2)), Move{Core: 2, From: energy.Fast, Level: energy.Slow})
	if a.Level(1) != energy.Slow || a.Used() != 0 {
		t.Fatalf("level(1) %d, used %d", a.Level(1), a.Used())
	}
	wantCounts(t, a, 2, 2, 3)
}

// TestShaveLeftoverGoesToCritical: where a step costs more than one
// unit, lowering victims can free more than a critical grant takes. The
// rest lifts waiting critical cores as a task end would, so after every
// operation no critical core can step up with the free units, and an End
// at the base level has nothing to hand on.
func TestShaveLeftoverGoesToCritical(t *testing.T) {
	a := NewAlloc(sim.NewEngine(), 5, []int{0, 2, 3})
	a.SetBudget(8)
	apply(a, a.Start(1, false))
	apply(a, a.Start(0, false))
	wantMoves(t, apply(a, a.Start(4, true)), Move{Core: 4, From: 0, Level: 1})
	// Core 2 needs 3 units and finds none free: cores 0 and 1 step down,
	// then core 0 again, freeing 4; the unit left lifts core 4.
	wantMoves(t, apply(a, a.Start(2, true)),
		Move{Core: 0, From: 2, Level: 1},
		Move{Core: 1, From: 2, Level: 1},
		Move{Core: 0, From: 1, Level: 0},
		Move{Core: 2, From: 0, Level: 2},
		Move{Core: 4, From: 1, Level: 2})
	if a.Used() != a.Budget() {
		t.Fatalf("used %d of %d units", a.Used(), a.Budget())
	}
}

func TestTaskEndNonAccelerated(t *testing.T) {
	eng, m, r := newRig(t, 2, 0) // zero budget: nothing ever accelerates
	busy(m, 0, func() { r.TaskStart(0, true, func() {}) })
	eng.Run()
	if r.Alloc().Level(0) != energy.Slow {
		t.Fatal("accelerated with zero budget")
	}
	var ended bool
	busy(m, 0, func() { r.TaskEnd(0, func() { ended = true }) })
	eng.Run()
	if !ended {
		t.Fatal("TaskEnd callback not invoked")
	}
	// A decision without moves finishes without a cpufreq write.
	wantCounts(t, r.Alloc(), 0, 0, 1)
	if w := r.fw.Writes(); w != 0 {
		t.Fatalf("%d cpufreq writes, want 0", w)
	}
}

func TestOperationsSerializeThroughLock(t *testing.T) {
	eng, m, r := newRig(t, 4, 4)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		busy(m, i, func() { r.TaskStart(i, false, func() { order = append(order, i) }) })
	}
	eng.Run()
	if len(order) != 3 {
		t.Fatalf("completed %d ops", len(order))
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("completion order %v, want FIFO", order)
		}
	}
	_, contended := r.Lock().Acquisitions()
	if contended != 2 {
		t.Fatalf("lock contended %d times, want 2", contended)
	}
	if r.OpLatency().Count() != 3 {
		t.Fatalf("op latencies recorded = %d", r.OpLatency().Count())
	}
	// Later ops waited for earlier ones: latency must grow monotonically.
	if r.OpLatency().MaxTime() <= r.OpLatency().MinTime() {
		t.Fatal("no serialization visible in op latencies")
	}
}

func TestOpTimeTotalAccumulates(t *testing.T) {
	eng, m, r := newRig(t, 2, 2)
	busy(m, 0, func() { r.TaskStart(0, false, func() {}) })
	eng.Run()
	if r.OpTimeTotal() <= 0 {
		t.Fatal("OpTimeTotal not accumulated")
	}
}

// TestSwapCommitsEachMoveAtItsWrite: the RSM commits a move when it
// issues the move's cpufreq write. In a swap the victim's slot is
// released at the decision, and the critical core's grant lands one
// write later, when the victim's write returns; the units-held integral
// has that write's gap in it.
func TestSwapCommitsEachMoveAtItsWrite(t *testing.T) {
	eng, m, r := newRig(t, 4, 1)
	buf := probe.NewBuffer()
	r.SetRecorder(buf)
	r.fw.SetRecorder(buf)
	busy(m, 0, func() { r.TaskStart(0, false, func() {}) })
	eng.Run()
	busy(m, 1, func() { r.TaskStart(1, true, func() {}) })
	eng.Run()
	if len(buf.Accels) != 2 || len(buf.Writes) != 3 {
		t.Fatalf("%d grants and %d writes, want 2 and 3", len(buf.Accels), len(buf.Writes))
	}
	first, victim, own := buf.Accels[0], buf.Writes[1], buf.Writes[2]
	if victim.Target != 0 || victim.Level != int(energy.Slow) || own.Target != 1 || own.Level != int(energy.Fast) {
		t.Fatalf("swap writes %+v then %+v, want core 0 slowed, then core 1 accelerated", victim, own)
	}
	grant := buf.Accels[1]
	if grant.Core != 1 || !grant.Granted || grant.At != victim.At {
		t.Fatalf("grant %+v, want core 1 at %v, when the victim's write returned", grant, victim.At)
	}
	decided := victim.At - victim.Total
	want := (decided - first.At) + (eng.Now() - grant.At)
	if got := r.Alloc().UnitTime(); got != want {
		t.Fatalf("units-held integral %v, want %v", got, want)
	}
}

func TestBudgetNeverExceededProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		cores := 2 + rng.Intn(6)
		budget := rng.Intn(cores + 1)
		eng := sim.NewEngine()
		cfg := machine.TableIConfig()
		cfg.Cores = cores
		m := machine.MustNew(eng, cfg)
		fw := cpufreq.New(eng, m, cpufreq.DefaultCosts())
		r := New(eng, m, fw, budget)

		// Drive random start/end sequences per core, chained so each
		// core's ops alternate correctly.
		ok := true
		var drive func(core int, remaining int, running bool)
		drive = func(core int, remaining int, running bool) {
			if remaining == 0 {
				return
			}
			check := func() {
				if r.Alloc().Used() > budget {
					ok = false
				}
				if m.DVFS.CommittedFast() > budget {
					ok = false
				}
			}
			if running {
				r.TaskEnd(core, func() {
					check()
					eng.After(sim.Time(rng.Intn(30))*sim.Microsecond, func() {
						drive(core, remaining-1, false)
					})
				})
			} else {
				r.TaskStart(core, rng.Bool(0.4), func() {
					check()
					eng.After(sim.Time(rng.Intn(30))*sim.Microsecond, func() {
						drive(core, remaining-1, true)
					})
				})
			}
		}
		for c := 0; c < cores; c++ {
			c := c
			busy(m, c, func() { drive(c, 6, false) })
		}
		eng.Run()
		return ok && r.Alloc().Used() <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
