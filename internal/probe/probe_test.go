package probe

import (
	"testing"

	"cata/internal/sim"
	"cata/internal/tdg"
)

// emitAll exercises every probe site exactly the way the simulator does:
// a nil-guarded interface call with scalar (or pre-existing pointer)
// arguments. It is the calling convention under test.
func emitAll(rec Recorder, t *tdg.Task) {
	if rec != nil {
		rec.TaskReady(1, t)
		rec.TaskDispatch(2, t, 3)
		rec.TaskStart(3, t, 3, 1)
		rec.TaskEnd(4, t, 3)
		rec.FreqRequest(5, 3, 1)
		rec.FreqActual(6, 3, 1, 2*sim.Gigahertz, 25*sim.Microsecond)
		rec.CpufreqWrite(7, 3, 4, 1, sim.Microsecond, 8*sim.Microsecond)
		rec.AccelGrant(8, 3, true, 2, 8)
		rec.AccelDeny(9, 4, false, 8, 8)
		rec.Power(10, 42.5)
		rec.QueueDepth(11, 7, 2)
	}
}

// TestDisabledRecorderZeroAllocs pins the flight recorder's core
// contract: with no recorder attached (the default for every simulation
// that does not request a trace), the probe sites perform zero
// allocations. Any Recorder signature change that introduces boxing
// (interface{} args, variadics, slices built at the call site) fails
// here before it can perturb the benchmark baseline.
func TestDisabledRecorderZeroAllocs(t *testing.T) {
	task := &tdg.Task{ID: 1, Critical: true}
	allocs := testing.AllocsPerRun(1000, func() {
		emitAll(nil, task)
	})
	if allocs != 0 {
		t.Fatalf("disabled probe path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestBufferRecordsEverything(t *testing.T) {
	b := NewBuffer()
	task := &tdg.Task{ID: 9, Core: -1, Critical: true}
	emitAll(b, task)
	if got := b.Events(); got != 11 {
		t.Fatalf("recorded %d events, want 11", got)
	}
	if len(b.Tasks) != 4 || len(b.Freqs) != 2 || len(b.Writes) != 1 ||
		len(b.Accels) != 2 || len(b.Powers) != 1 || len(b.Queues) != 1 {
		t.Fatalf("event routing wrong: %+v", b)
	}
	if b.Tasks[2].Kind != KindStart || b.Tasks[2].Wait != 1 || b.Tasks[2].Task != 9 {
		t.Fatalf("start event wrong: %+v", b.Tasks[2])
	}
	if !b.Freqs[1].Actual || b.Freqs[1].Freq != 2*sim.Gigahertz {
		t.Fatalf("actual freq event wrong: %+v", b.Freqs[1])
	}
	if !b.Accels[0].Granted || b.Accels[1].Granted {
		t.Fatalf("grant/deny flags wrong: %+v", b.Accels)
	}
}
