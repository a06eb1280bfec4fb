package tdg

import "testing"

// submitDense builds one dense shared-suffix graph: 512 tasks over an
// 8-token pool, starting and completing the oldest ready task every
// third submission. It is the memoized bottom-level walk's worst
// regime, and one operation of BenchmarkSubmitDense.
func submitDense() {
	var ready []*Task
	g := New(func(t *Task) { ready = append(ready, t) })
	for j := 0; j < 512; j++ {
		g.Submit(&Task{
			ID:        j,
			CPUCycles: 1000,
			Ins:       []Token{Token(j % 8)},
			Outs:      []Token{Token((j + 3) % 8)},
		})
		if j%3 == 0 && len(ready) > 0 {
			head := ready[0]
			ready = ready[1:]
			g.Start(head)
			g.Complete(head)
		}
	}
}

func BenchmarkSubmitDense(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		submitDense()
	}
}

// TestSubmitDenseAllocs pins BenchmarkSubmitDense's heap allocations per
// graph to their measured count, with 15% headroom upward, the
// tolerance of the bench gate the pin was first recorded for. The test
// allocates each task and its two token slices; the graph keeps its
// edge and reader lists in chunks. Allocation counts do not depend on
// the host, so they can gate every test run.
func TestSubmitDenseAllocs(t *testing.T) {
	const pin = 1655
	got := testing.AllocsPerRun(10, submitDense)
	t.Logf("submitDense: %.0f allocations per graph, pinned %d", got, pin)
	if got > pin*1.15 {
		t.Errorf("submitDense allocates %.0f objects per graph, pinned %d (+15%% allowed)", got, pin)
	}
}
