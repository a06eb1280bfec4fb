package cpufreq

import (
	"fmt"

	"cata/internal/energy"
	"cata/internal/machine"
	"cata/internal/probe"
	"cata/internal/sim"
	"cata/internal/stats"
)

// Costs parameterizes the software path of one frequency write (Figure 2:
// runtime → policy file → interrupt → cpufreq driver → DVFS controller →
// return). Cycle costs scale with the calling core's frequency; fixed
// costs (device register access) do not.
type Costs struct {
	// UserKernelCycles covers the policy-file write, the trap and kernel
	// entry ("the cpufreq daemon triggers an interrupt ...").
	UserKernelCycles int64
	// DriverCycles is the cpufreq driver's computation under the big
	// lock, including the kernel's clock bookkeeping ("the kernel updates
	// all its internal data structures related to the clock frequency").
	DriverCycles int64
	// DriverFixed is the frequency-invariant device-register programming
	// time inside the driver.
	DriverFixed sim.Time
	// ReturnCycles covers the kernel exit back to user space.
	ReturnCycles int64
	// HousekeepPeriod and HousekeepHold model periodic kernel activity
	// (governor sampling, notifier chains, timekeeping updates) that
	// takes the global policy lock for a long stretch. Reconfiguration
	// operations colliding with a housekeeping window queue behind it —
	// the mechanism behind the paper's millisecond-scale worst-case lock
	// acquisitions in reconfiguration-heavy applications (§V-C), while
	// the average stays in the tens of microseconds. Zero disables it.
	HousekeepPeriod sim.Time
	HousekeepHold   sim.Time
}

// DefaultCosts returns the calibration used in the experiments. At 1 GHz
// the uncontended software path is ~7.5 µs (half that at 2 GHz for the
// cycle components), which together with lock queueing reproduces the
// paper's measured 11–65 µs average CATA reconfiguration latencies and
// millisecond worst-case lock acquisitions under barrier bursts (§V-C).
func DefaultCosts() Costs {
	return Costs{
		UserKernelCycles: 2500, // 2.5µs @1GHz
		DriverCycles:     3000, // 3µs @1GHz
		DriverFixed:      1 * sim.Microsecond,
		ReturnCycles:     1000, // 1µs @1GHz
		HousekeepPeriod:  90 * sim.Millisecond,
		HousekeepHold:    1200 * sim.Microsecond,
	}
}

// Framework models the kernel cpufreq stack: per-core policy files with a
// userspace governor, and one global driver lock (the kernel serializes
// policy updates; §III-A: "some steps ... inherently need to execute
// sequentially").
type Framework struct {
	eng   *sim.Engine
	mach  *machine.Machine
	costs Costs
	lock  *Lock

	writes    int64
	writeLat  stats.DurationSummary // entry to syscall return
	perCaller []stats.DurationSummary

	hkArmed      bool
	hkLastWrites int64
	// The housekeeping path's three steps, bound once at construction.
	hkCb, hkHeldCb, hkDoneCb func()

	// ops holds one write record per calling core.
	ops []writeOp

	// rec, when non-nil, receives one WriteEvent per completed policy
	// write, carrying the lock-wait share of the total latency.
	rec probe.Recorder
}

// writePhase is the step a policy write takes when its record's
// callback next fires.
type writePhase int

const (
	writeEntered  writePhase = iota // user→kernel path paid: take the driver lock
	writeLocked                     // lock granted: run the driver
	writeDriven                     // driver done: kick DVFS, drop the lock, return
	writeReturned                   // back in user space: account and resume the caller
)

// writeOp is one calling core's policy write in flight. The caller
// blocks in the syscall, so a core issues at most one write at a time
// and one record per core suffices: its step callback is bound at
// construction, and a write hands the engine and the driver lock no
// closure.
type writeOp struct {
	f      *Framework
	caller int
	target int
	level  energy.Level
	phase  writePhase

	start     sim.Time // entry into the write
	lockStart sim.Time // driver lock requested
	lockWait  sim.Time // driver lock requested → granted
	done      func()   // the caller's continuation; nil when idle
	stepCb    func()   // step, bound at construction
}

// New returns a framework bound to the machine.
func New(eng *sim.Engine, mach *machine.Machine, costs Costs) *Framework {
	f := &Framework{
		eng:       eng,
		mach:      mach,
		costs:     costs,
		lock:      NewLock(eng),
		perCaller: make([]stats.DurationSummary, mach.Cores()),
		ops:       make([]writeOp, mach.Cores()),
	}
	f.hkCb, f.hkHeldCb, f.hkDoneCb = f.housekeep, f.housekeepHeld, f.housekeepDone
	for i := range f.ops {
		op := &f.ops[i]
		op.f, op.caller, op.stepCb = f, i, op.step
	}
	return f
}

// SetRecorder attaches a flight recorder reporting completed writes.
func (f *Framework) SetRecorder(rec probe.Recorder) { f.rec = rec }

// Harvest reports the worst wait on the kernel driver lock.
func (f *Framework) Harvest(st stats.Reconfig, _ sim.Time) stats.Reconfig {
	st.DriverLockWaitMax = f.lock.WaitTimes().MaxTime()
	return st
}

// armHousekeeping starts the periodic kernel housekeeping on the first
// write and keeps it running only while writes keep coming, so an idle
// system (and the event queue) quiesces.
func (f *Framework) armHousekeeping() {
	if f.hkArmed || f.costs.HousekeepPeriod <= 0 || f.costs.HousekeepHold <= 0 {
		return
	}
	f.hkArmed = true
	f.eng.After(f.costs.HousekeepPeriod/3, f.hkCb)
}

// housekeep models the periodic kernel path that holds the policy lock
// (it runs on a kernel thread, not on a simulated core).
func (f *Framework) housekeep() { f.lock.Acquire(f.hkHeldCb) }

// housekeepHeld holds the granted lock for the housekeeping window.
func (f *Framework) housekeepHeld() { f.eng.After(f.costs.HousekeepHold, f.hkDoneCb) }

// housekeepDone releases the lock and re-arms the next window while
// writes keep coming.
func (f *Framework) housekeepDone() {
	f.lock.Release()
	if f.writes == f.hkLastWrites {
		f.hkArmed = false // quiesce until the next write
		return
	}
	f.hkLastWrites = f.writes
	f.eng.After(f.costs.HousekeepPeriod-f.costs.HousekeepHold, f.hkCb)
}

// Write performs one policy-file write: set core `target` to `level`,
// executing the software path on core `caller`. done runs when the
// syscall returns to user space; the physical DVFS transition started by
// the driver completes asynchronously (TransitionLatency later).
//
// The caller's core must be in its Busy state (the runtime performs
// writes from the worker's dispatch/completion path), and it must not
// have another write in flight.
func (f *Framework) Write(caller, target int, level energy.Level, done func()) {
	if caller < 0 || caller >= f.mach.Cores() || target < 0 || target >= f.mach.Cores() {
		panic(fmt.Sprintf("cpufreq: write caller=%d target=%d out of range", caller, target))
	}
	op := &f.ops[caller]
	if op.done != nil {
		panic(fmt.Sprintf("cpufreq: core %d writes with a write in flight", caller))
	}
	op.target, op.level, op.done = target, level, done
	op.start = f.eng.Now()
	f.writes++
	f.armHousekeeping()
	// 1. User→kernel: file write, interrupt, kernel entry.
	op.phase = writeEntered
	f.mach.Core(caller).Exec(f.costs.UserKernelCycles, 0, op.stepCb)
}

// step advances the write one stage of the Figure 2 path.
func (op *writeOp) step() {
	f := op.f
	switch op.phase {
	case writeEntered:
		// 2. The driver runs under the global cpufreq lock. The core
		// blocks (stays busy / C0-active) until granted.
		op.phase = writeLocked
		op.lockStart = f.eng.Now()
		f.lock.Acquire(op.stepCb)
	case writeLocked:
		// 3. Driver computation + device register programming.
		op.lockWait = f.eng.Now() - op.lockStart
		op.phase = writeDriven
		f.mach.Core(op.caller).Exec(f.costs.DriverCycles, f.costs.DriverFixed, op.stepCb)
	case writeDriven:
		// 4. Kick the hardware transition, then 5. return to user space.
		f.mach.DVFS.Request(op.target, op.level)
		op.phase = writeReturned
		f.lock.Release()
		f.mach.Core(op.caller).Exec(f.costs.ReturnCycles, 0, op.stepCb)
	case writeReturned:
		lat := f.eng.Now() - op.start
		f.writeLat.ObserveTime(lat)
		f.perCaller[op.caller].ObserveTime(lat)
		if f.rec != nil {
			f.rec.CpufreqWrite(f.eng.Now(), op.caller, op.target, int(op.level), op.lockWait, lat)
		}
		done := op.done
		op.done = nil
		done()
	}
}

// Writes returns the number of policy writes performed.
func (f *Framework) Writes() int64 { return f.writes }

// WriteLatency summarizes entry-to-return latency across all writes.
func (f *Framework) WriteLatency() *stats.DurationSummary { return &f.writeLat }

// CallerLatency summarizes write latencies observed by one core — useful
// for spotting cores that systematically lose the lock race (e.g. the
// master thread issuing reconfigurations during creation bursts).
func (f *Framework) CallerLatency(core int) *stats.DurationSummary {
	return &f.perCaller[core]
}

// DriverLock exposes the global lock for contention statistics (§V-C).
func (f *Framework) DriverLock() *Lock { return f.lock }
