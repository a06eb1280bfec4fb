package sim

import "testing"

// The engine benchmarks time three hot loops of the event engine, and
// TestEngineLoopsZeroAllocs pins each at zero heap allocations per
// iteration. Each loop is a function that sets up its engine and returns
// one iteration, so the benchmark and the pin run the same code.

// scheduleFireLoop is the raw schedule+fire loop. One event in flight at
// a time would under-exercise the heap, so it keeps a rolling window of
// up to 10k pending events.
func scheduleFireLoop(e *Engine) func() {
	i := 0
	return func() {
		e.After(Time(i%1000), func() {})
		if e.Pending() > 10000 {
			e.Run()
		}
		i++
	}
}

// deepQueueLoop holds a standing queue of 4k events and fires one per
// iteration: the sift-down regime where heap arity matters.
func deepQueueLoop(e *Engine) func() {
	for i := 0; i < 4096; i++ {
		e.After(Time(i+1), func() {})
	}
	return func() {
		e.After(Time(4096), func() {})
		e.RunUntil(e.Now() + 1)
	}
}

// cancelRescheduleLoop is the DVFS-rescale pattern of machine.Core:
// cancel the pending completion, schedule a replacement.
func cancelRescheduleLoop(e *Engine) func() {
	var h Handle
	i := 0
	return func() {
		if h.Pending() {
			h.Cancel()
		}
		h = e.After(Time(i%100+1), func() {})
		if i%64 == 0 {
			e.Run()
		}
		i++
	}
}

func benchLoop(b *testing.B, loop func(*Engine) func()) {
	e := NewEngine()
	step := loop(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	e.Run()
}

func BenchmarkEngineScheduleFire(b *testing.B)     { benchLoop(b, scheduleFireLoop) }
func BenchmarkEngineDeepQueue(b *testing.B)        { benchLoop(b, deepQueueLoop) }
func BenchmarkEngineCancelReschedule(b *testing.B) { benchLoop(b, cancelRescheduleLoop) }

// TestEngineLoopsZeroAllocs pins the engine benchmarks' loops at zero
// allocations per iteration, as the July bench capture (BENCH_1.json)
// measured them: the arena and the heap reuse their slots, and a
// callback that captures nothing is not allocated. Over 20,000
// iterations, AllocsPerRun's integer average hides only the few
// allocations of the arena's first growth.
func TestEngineLoopsZeroAllocs(t *testing.T) {
	for _, l := range []struct {
		name string
		loop func(*Engine) func()
	}{
		{"schedule-fire", scheduleFireLoop},
		{"deep-queue", deepQueueLoop},
		{"cancel-reschedule", cancelRescheduleLoop},
	} {
		if got := testing.AllocsPerRun(20000, l.loop(NewEngine())); got != 0 {
			t.Errorf("%s: %v allocs per iteration, want 0", l.name, got)
		}
	}
}
