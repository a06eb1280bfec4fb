package main

import (
	"container/heap"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Host speed on a shared machine drifts: neighbours contending for the
// same cores and caches slowed the simulator by up to a third for
// seconds to minutes at a time on a 2-vCPU Xeon VM, where the run-to-run
// spread of raw throughput reached 28–37%. Scaling each round's times by
// a calibration kernel timed around it cut that to 3–12%.

// calNominal is the kernel's time on an uncontended 2-vCPU Xeon VM; a
// scale of 1 means the machine ran at that speed.
const calNominal = 10 * time.Millisecond

// calEvents is the kernel's work: event-queue operations per goroutine.
const calEvents = 40000

// calEvent and calQueue make the kernel a small discrete-event loop —
// a binary heap of timestamped events whose payloads are reallocated as
// they fire — because contention slows the simulator's own event loop,
// allocator and garbage collector, and a kernel of that shape is slowed
// alike; pure arithmetic kernels barely notice it.
type calEvent struct {
	at   int64
	data *[3]int64
}

type calQueue []calEvent

func (q calQueue) Len() int           { return len(q) }
func (q calQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)        { *q = append(*q, x.(calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calKernel runs the event loop once and returns a value derived from
// it, so the work cannot be optimized away.
func calKernel() int64 {
	x := uint64(88172645463325252)
	next := func() int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x >> 44)
	}
	q := make(calQueue, 0, 2048)
	for i := 0; i < 2048; i++ {
		heap.Push(&q, calEvent{at: next(), data: &[3]int64{}})
	}
	var sum int64
	for i := 0; i < calEvents; i++ {
		e := heap.Pop(&q).(calEvent)
		e.data[0]++
		if i%4 == 0 {
			e.data = &[3]int64{e.at}
		}
		sum += e.data[0]
		e.at += next()
		heap.Push(&q, e)
	}
	return sum
}

// calSink keeps the kernel's result live.
var calSink struct {
	sync.Mutex
	v int64
}

// calRuns is how many times calibrate runs the kernel; it reports the
// median, so one preempted run does not skew a round's scale.
const calRuns = 3

// calibrate runs the kernel on each of par goroutines at the same time,
// calRuns times, and returns the median wall time. It collects the heap
// first, so that the kernel's allocations never pay for a collection of
// what the workload left behind.
func calibrate(par int) time.Duration {
	runtime.GC()
	var times [calRuns]time.Duration
	for r := range times {
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < max(par, 1); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v := calKernel()
				calSink.Lock()
				calSink.v += v
				calSink.Unlock()
			}()
		}
		wg.Wait()
		times[r] = time.Since(start)
	}
	slices.Sort(times[:])
	return times[calRuns/2]
}

// scale returns the factor that brings times measured while the kernel
// took cal to the reference speed.
func scale(cal time.Duration) float64 {
	if cal <= 0 {
		return 1
	}
	return float64(calNominal) / float64(cal)
}
