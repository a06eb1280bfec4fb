package sim

import "testing"

// The tests in this file pin down the event-arena behaviors the original
// container/heap engine papered over: Pending() counting cancelled
// events, slot reuse after fire/cancel, and cancel/reschedule churn of
// the kind machine.Core's DVFS rescaling produces.

func TestEnginePendingExcludesCancelled(t *testing.T) {
	e := NewEngine()
	h1 := e.At(10, func() {})
	e.At(20, func() {})
	e.At(30, func() {})
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	h1.Cancel()
	// The queue entry is discarded lazily, but Pending must drop now.
	if e.Pending() != 2 {
		t.Fatalf("Pending after cancel = %d, want 2", e.Pending())
	}
	if n := e.Run(); n != 2 {
		t.Fatalf("Run executed %d, want 2", n)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after run = %d, want 0", e.Pending())
	}
}

func TestEngineCancelDuringRun(t *testing.T) {
	e := NewEngine()
	var fired []int
	var h2 Handle
	e.At(10, func() {
		fired = append(fired, 1)
		if !h2.Cancel() {
			t.Error("cancelling a pending later event returned false")
		}
		if e.Pending() != 1 {
			t.Errorf("Pending inside event = %d, want 1 (the 30 event)", e.Pending())
		}
	})
	h2 = e.At(20, func() { fired = append(fired, 2) })
	e.At(30, func() { fired = append(fired, 3) })
	e.Run()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired = %v, want [1 3]", fired)
	}
}

// TestEngineSlotReuseGeneration checks that a handle whose event already
// fired cannot cancel a later event that recycled the same arena slot.
func TestEngineSlotReuseGeneration(t *testing.T) {
	e := NewEngine()
	h1 := e.At(1, func() {})
	e.Run() // fires h1, releasing its slot
	fired := false
	h2 := e.At(2, func() { fired = true }) // reuses the slot
	if h1.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if h1.Cancel() {
		t.Fatal("stale handle cancelled a recycled slot")
	}
	if !h2.Pending() {
		t.Fatal("live handle lost pending after stale Cancel")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled-slot event did not fire")
	}
}

// TestEngineCancelledStaleHandleAfterReuse is the same generation check
// for a slot recycled through the cancel path rather than the fire path.
func TestEngineCancelledStaleHandleAfterReuse(t *testing.T) {
	e := NewEngine()
	h1 := e.At(5, func() { t.Error("cancelled event fired") })
	h1.Cancel()
	e.At(6, func() {}) // forces the engine to discard h1's entry later
	e.Run()            // discards h1's entry, releasing its slot
	fired := false
	h2 := e.At(7, func() { fired = true })
	if h1.Cancel() || h1.Pending() {
		t.Fatal("stale cancelled handle still resolves")
	}
	e.Run()
	if !fired {
		t.Fatal("event on recycled slot did not fire")
	}
	_ = h2
}

// TestEngineCancelReschedule exercises the DVFS rescale pattern: cancel
// the in-flight completion and reschedule it at a new timestamp, many
// times over.
func TestEngineCancelReschedule(t *testing.T) {
	e := NewEngine()
	var fireAt Time
	var h Handle
	schedule := func(at Time) {
		if h.Pending() {
			h.Cancel()
		}
		h = e.At(at, func() { fireAt = e.Now() })
	}
	schedule(100)
	for i := 0; i < 50; i++ {
		schedule(Time(200 + i)) // each call cancels the previous one
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 after reschedule churn", e.Pending())
	}
	e.Run()
	if fireAt != 249 {
		t.Fatalf("event fired at %v, want 249 (only the last schedule)", fireAt)
	}
	if e.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", e.Fired())
	}
}

// TestEngineCancelHeadDoesNotBlockRunUntil: a cancelled event at the head
// of the queue must not stop RunUntil from reaching later events.
func TestEngineCancelHeadDoesNotBlockRunUntil(t *testing.T) {
	e := NewEngine()
	h := e.At(10, func() { t.Error("cancelled head fired") })
	fired := false
	e.At(20, func() { fired = true })
	h.Cancel()
	if n := e.RunUntil(25); n != 1 {
		t.Fatalf("RunUntil executed %d, want 1", n)
	}
	if !fired || e.Now() != 25 {
		t.Fatalf("fired=%v Now=%v", fired, e.Now())
	}
}

func TestEngineCancelAllThenRun(t *testing.T) {
	e := NewEngine()
	var hs []Handle
	for i := Time(1); i <= 8; i++ {
		hs = append(hs, e.At(i, func() { t.Error("cancelled event fired") }))
	}
	for _, h := range hs {
		h.Cancel()
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
	if n := e.Run(); n != 0 {
		t.Fatalf("Run executed %d, want 0", n)
	}
	// The clock must not advance on discarded events.
	if e.Now() != 0 {
		t.Fatalf("Now = %v, want 0", e.Now())
	}
}

func TestEngineZeroHandle(t *testing.T) {
	var h Handle
	if h.Pending() {
		t.Fatal("zero handle pending")
	}
	if h.Cancel() {
		t.Fatal("zero handle cancelled")
	}
}

// TestEngineArenaReuse checks that heavy schedule/fire churn stays within
// a bounded arena instead of growing with total events.
func TestEngineArenaReuse(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10000; i++ {
		e.After(1, func() {})
		e.Run()
	}
	if len(e.arena) > 16 {
		t.Fatalf("arena grew to %d slots under churn; free-list reuse broken", len(e.arena))
	}
}
