package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestQuartilesMatchPython: the quartiles are the ones Python's
// statistics.quantiles(xs, n=4) computes, the values below taken from
// it, so a spread computed here matches an external checker's.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6},
		{[]float64{0.3, 0.1, 0.9, 0.5, 0.7}, 0.2, 0.8},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	for p, want := range map[float64]time.Duration{50: 50 * time.Millisecond, 99: 99 * time.Millisecond, 100: 100 * time.Millisecond, 0.5: time.Millisecond} {
		if got := percentile(ds, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

// TestSelfTime covers self-time accounting: disjoint children, children
// overlapping each other, a child sticking out of its parent, and a
// grandchild, which counts against its parent only.
func TestSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "request", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "server.admit", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "jobs.queue", Start: at(20), End: at(50)}, // overlaps admit by 10
		{ID: 4, Parent: 1, Name: "jobs.run", Start: at(60), End: at(70)},
		{ID: 5, Parent: 1, Name: "server.notify", Start: at(90), End: at(120)}, // 20 outside the parent
		{ID: 6, Parent: 4, Name: "inner", Start: at(62), End: at(66)},
		{ID: 7, Name: "round", Start: at(200), End: at(210)},
	}
	self := selfTime(spans)
	want := map[int]time.Duration{
		1: 100 - (50 - 10) - 10 - 10, // children cover [10,50), [60,70), [90,100)
		2: 20, 3: 30, 4: 10 - 4, 5: 30, 6: 4, 7: 10,
	}
	for id, w := range want {
		if got := self[id]; got != w*time.Millisecond {
			t.Errorf("self time of span %d = %v, want %v", id, got, w*time.Millisecond)
		}
	}
	by := selfByName(spans)
	if by["request"] != 40*time.Millisecond || by["jobs.run"] != 6*time.Millisecond {
		t.Errorf("self by name = %v", by)
	}
	var tr *tracer
	if id := tr.begin("x", 0, ""); id != 0 {
		t.Errorf("nil tracer begin = %d, want 0", id)
	}
	tr.end(0)
	var buf strings.Builder
	if err := writeChrome(&buf, spans); err != nil || !strings.Contains(buf.String(), `"name":"jobs.queue","ph":"X"`) {
		t.Errorf("chrome trace %q, %v", buf.String(), err)
	}
}

// TestCompareVerdicts covers the verdicts a comparison can reach.
func TestCompareVerdicts(t *testing.T) {
	tput := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	lat := metricDef{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"unchanged", tput, parent, []float64{99, 101, 100, 98, 102, 100, 99, 101, 100, 100}, verdictPass},
		{"slightly worse within bound", tput, parent, []float64{95, 96, 94, 95, 97, 95, 96, 94, 95, 96}, verdictPass},
		{"throughput regression", tput, parent, []float64{80, 81, 79, 80, 82, 80, 81, 79, 80, 80}, verdictRegression},
		{"latency regression", lat, []float64{1, 1.01, 0.99, 1, 1}, []float64{1.3, 1.31, 1.29, 1.3, 1.3}, verdictRegression},
		{"noisy", tput, []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, []float64{65, 135, 85, 115, 95, 75, 125, 95, 105, 100}, verdictUnresolved},
		{"gain", lat, []float64{1, 1.01, 0.99, 1, 1}, []float64{0.8, 0.81, 0.79, 0.8, 0.8}, verdictGain},
		{"noisy but every run better", tput, []float64{50, 60, 70, 80}, []float64{100, 120, 140, 160}, verdictGain},
	} {
		if got := compareMetric(c.def, c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (worse %.3f, spread %.3f, wins %d/%d), want %s", c.name, got.Verdict, got.Worse, got.Spread, got.Wins, got.Pairs, c.want)
		}
	}
}

// TestCompareRunsFlagsDigestMismatch: two runs of one workload and seed
// that disagree on their digest are a problem whatever the timings say.
func TestCompareRunsFlagsDigestMismatch(t *testing.T) {
	mk := func(d string, v float64) *result {
		return &result{Workload: "figures", Seed: 42, Digest: d, Correct: true,
			Metrics: map[string]summary{"ops_per_s": {Value: v, Unit: "1/s"}}}
	}
	defs := []metricDef{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}
	rows, problems := compareRuns(defs, []*result{mk("aa", 100), mk("aa", 101)}, []*result{mk("aa", 100), mk("bb", 99)})
	if len(rows) != 1 || rows[0].Verdict != verdictPass {
		t.Errorf("rows %+v", rows)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "digests differ") {
		t.Errorf("problems %v, want one digest mismatch", problems)
	}
}

// rawProfile is `go tool pprof -raw` output trimmed to three samples:
// an engine leaf inlined into rsm, a GC mark worker, and an allocation
// from the scheduler.
const rawProfile = `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          2   20000000: 1 2 3
          1   10000000: 4 5
          1   10000000: 6 7 8
Locations
     1: 0x5921c0 M=1 cata/internal/machine.(*Machine).Core /src/machine.go:58:0 s=58
             cata/internal/rsm.(*RSM).TaskStart.func1 /src/rsm.go:171:0 s=170
     2: 0x58951a M=1 cata/internal/sim.(*Engine).run /src/engine.go:198:0 s=177
     3: 0x5b20a4 M=1 cata/internal/exp.runWith /src/run.go:231:0 s=220
     4: 0x41a000 M=1 runtime.scanobject /go/src/runtime/mgcmark.go:1:0 s=1
     5: 0x41b000 M=1 runtime.gcBgMarkWorker /go/src/runtime/mgc.go:1:0 s=1
     6: 0x40c000 M=1 runtime.nextFreeFast /go/src/runtime/malloc.go:1:0 s=1
             runtime.mallocgc /go/src/runtime/malloc.go:2:0 s=1
     7: 0x40d000 M=1 cata/internal/batch.Run[go.shape.struct { cata/internal/exp.Spec }] /src/batch.go:1:0 s=1
     8: 0x40e000 M=1 cata/internal/sched.(*Queue).Push /src/queue.go:1:0 s=1
Mappings
1: 0x400000/0x5d8000/0x0 /bin/perfbench  [FN]
`

func TestParseRaw(t *testing.T) {
	p, err := parseRaw(strings.NewReader(rawProfile))
	if err != nil {
		t.Fatal(err)
	}
	if p.Samples != 4 || p.Leaf["machine"] != 2 || p.Leaf["runtime"] != 2 || p.GC != 1 || p.Malloc != 1 {
		t.Errorf("folded %+v", p)
	}
	if got := p.share(p.Leaf["machine"]); got != 50 {
		t.Errorf("machine share = %v, want 50", got)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cata/internal/machine.(*Machine).Core":                 "machine",
		"cata/internal/batch.Run[go.shape.struct { cata/x.Y }]": "batch",
		"cata.Run":                                "cata",
		"encoding/json.(*decodeState).object":     "json",
		"net/http.(*conn).serve":                  "net_http",
		"net/http/internal.(*chunkedReader).Read": "net_http",
		"runtime.mallocgc":                        "runtime",
		"syscall.Syscall6":                        "other",
		"main.(*service).do":                      "other",
		"":                                        "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestReplayMatchesProgram: replaying a program through the task graph
// submits and retires every task.
func TestReplayMatchesProgram(t *testing.T) {
	ls := &layerStats{}
	if err := ls.build(nil, 0, "layered:width=16,depth=8,fanin=4", 1, 1.0); err != nil {
		t.Fatal(err)
	}
	if ls.buildTasks != 128 || ls.replayTasks != 128 || ls.visited < ls.replayTasks {
		t.Errorf("build/replay stats %+v", ls)
	}
}
