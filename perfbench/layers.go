package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"cata/internal/batch"
	"cata/internal/metrics"
	"cata/internal/program"
	"cata/internal/tdg"
	"cata/internal/workloads"
)

// counters is a snapshot of the process's counters from the metrics
// registry catad serves on /metrics (unlabeled samples only).
type counters map[string]float64

func readCounters() counters {
	var buf bytes.Buffer
	_ = metrics.Default.Write(&buf) // a bytes.Buffer write cannot fail
	c := counters{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			c[name] = v
		}
	}
	return c
}

// sub returns c[name] - before[name].
func (c counters) sub(before counters, name string) float64 { return c[name] - before[name] }

// record is one output a workload produced, keyed by what identifies
// it; traced runs time the batch cache layer on these records.
type record struct {
	key   any
	value any
}

// layerStats accumulates the per-layer measurements of a traced pass.
// The zero value is ready; a nil *layerStats (untraced pass) ignores
// every call, so workloads call the same code in both passes.
type layerStats struct {
	mu sync.Mutex

	buildTime    time.Duration
	buildTasks   int64
	buildMallocs uint64

	replayTime  time.Duration
	replayTasks int64
	visited     int64

	// runHost is the host time of the measured runs (exp.Run calls),
	// runSimWall the simulator's own share of it (the
	// cata_sim_wall_seconds_total delta), so their difference is the
	// harness overhead around the engine.
	runHost    time.Duration
	runSimWall float64
	runs       int64
	runMallocs uint64

	jobs       int64
	jobMallocs uint64
	jobBytes   uint64

	simTasks   int64 // tasks the engine simulated during the pass
	inversions int64
	invTasks   int64
	reconfig   []float64 // ReconfigOverheadPct of CATA-path runs

	arrived, shed, missed int64

	records []record

	paperGap float64

	// detail holds ungated readings for humans (the service's layer
	// latencies in ms).
	detail map[string]float64
}

// build times workloads.Build of spec, records the program's tasks and
// allocations, and replays it through the task graph.
func (ls *layerStats) build(tr *tracer, parent int, spec string, seed uint64, scale float64) error {
	if ls == nil {
		return nil
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := tr.begin("workloads.Build", parent, "")
	start := time.Now()
	prog, err := workloads.Build(spec, seed, scale)
	el := time.Since(start)
	tr.end(id)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	id = tr.begin("tdg.replay", parent, "")
	start = time.Now()
	visited, err := replay(prog)
	rel := time.Since(start)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", spec, err)
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.buildTime += el
	ls.buildTasks += int64(prog.Tasks())
	ls.buildMallocs += m1.Mallocs - m0.Mallocs
	ls.replayTime += rel
	ls.replayTasks += int64(prog.Tasks())
	ls.visited += visited
	return nil
}

// replayWindow bounds the live tasks during a replay, standing in for
// the cores that retire tasks while the master thread keeps creating
// them (4 per core of the 32-core Table I machine).
const replayWindow = 128

// replay feeds a program through a fresh task graph in creation order:
// submit each task, retire the oldest ready task whenever more than
// replayWindow are live, and drain everything at each barrier and at the
// end. It returns the bottom-level walk's visited-node count.
func replay(p *program.Program) (visited int64, err error) {
	var ready []*tdg.Task
	g := tdg.New(func(t *tdg.Task) { ready = append(ready, t) })
	retire := func() bool {
		if len(ready) == 0 {
			return false
		}
		t := ready[0]
		ready = ready[1:]
		g.Start(t)
		g.Complete(t)
		return true
	}
	for i, it := range p.Items {
		if it.Barrier {
			for retire() {
			}
			continue
		}
		s := it.Task
		visited += int64(g.Submit(&tdg.Task{
			ID: i, Type: s.Type, CPUCycles: s.CPUCycles, MemTime: s.MemTime, IOTime: s.IOTime,
			Ins: s.Ins, Outs: s.Outs,
		}))
		for g.Live() > replayWindow && retire() {
		}
	}
	for retire() {
	}
	if !g.AllDone() {
		return visited, fmt.Errorf("replay of %s left %d tasks live", p.Name, g.Live())
	}
	return visited, nil
}

// runProbe brackets measured runs: it samples allocation and simulator
// counters before, and done folds the deltas into the stats.
type runProbe struct {
	ls    *layerStats
	start time.Time
	m0    runtime.MemStats
	c0    counters
}

func (ls *layerStats) probe() *runProbe {
	if ls == nil {
		return nil
	}
	p := &runProbe{ls: ls, c0: readCounters()}
	runtime.ReadMemStats(&p.m0)
	p.start = time.Now()
	return p
}

// done records runs measured runs whose summed host time is host (the
// probe's own wall time when host is 0), and jobs injected jobs.
func (p *runProbe) done(runs int, host time.Duration, jobs int64) {
	if p == nil {
		return
	}
	if host == 0 {
		host = time.Since(p.start)
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	c1 := readCounters()
	ls := p.ls
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.runHost += host
	ls.runSimWall += c1.sub(p.c0, "cata_sim_wall_seconds_total")
	ls.runs += int64(runs)
	ls.runMallocs += m1.Mallocs - p.m0.Mallocs
	if jobs > 0 {
		ls.jobs += jobs
		ls.jobMallocs += m1.Mallocs - p.m0.Mallocs
		ls.jobBytes += m1.TotalAlloc - p.m0.TotalAlloc
	}
}

// simulated counts tasks the engine simulated during the pass.
func (ls *layerStats) simulated(tasks int64) {
	if ls == nil {
		return
	}
	ls.mu.Lock()
	ls.simTasks += tasks
	ls.mu.Unlock()
}

// addRun folds one run's simulated statistics, and its output record
// keyed by what identifies it, into the stats.
func (ls *layerStats) addRun(tasks, inversions int64, reconfigPct float64, key, value any) {
	if ls == nil {
		return
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.inversions += inversions
	ls.invTasks += tasks
	if reconfigPct > 0 {
		ls.reconfig = append(ls.reconfig, reconfigPct)
	}
	ls.records = append(ls.records, record{key, value})
}

// maxBatchRecords bounds the records the batch-layer timing uses.
const maxBatchRecords = 2000

// batchTimes times the batch cache layer on a workload's own records:
// Put of each into a fresh cache file, Get of each, and a re-Open that
// parses the file back, each per record.
type batchTimes struct{ getUs, putUs, openUsPerRecord float64 }

func timeBatch(dir string, recs []record) (batchTimes, error) {
	var bt batchTimes
	var keys []string
	var uniq []record
	seen := map[string]bool{}
	for _, r := range recs {
		k, err := batch.Key(r.key)
		if err != nil {
			return bt, err
		}
		if !seen[k] && len(uniq) < maxBatchRecords {
			seen[k] = true
			keys = append(keys, k)
			uniq = append(uniq, r)
		}
	}
	if len(uniq) == 0 {
		return bt, nil
	}
	perRecord := func(start time.Time) float64 {
		return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(uniq))
	}
	path := filepath.Join(dir, "layer-cache.jsonl")
	_ = os.Remove(path) // a leftover from an aborted run; absence is fine
	defer os.Remove(path)
	c, err := batch.Open(path)
	if err != nil {
		return bt, err
	}
	start := time.Now()
	for i, r := range uniq {
		if err := c.Put(keys[i], r.value); err != nil {
			c.Close()
			return bt, err
		}
	}
	bt.putUs = perRecord(start)
	start = time.Now()
	for _, k := range keys {
		if _, ok := c.Get(k); !ok {
			c.Close()
			return bt, fmt.Errorf("batch: record %s missing right after Put", k)
		}
	}
	bt.getUs = perRecord(start)
	if err := c.Close(); err != nil {
		return bt, err
	}
	start = time.Now()
	c, err = batch.Open(path)
	bt.openUsPerRecord = perRecord(start)
	if err != nil {
		return bt, err
	}
	defer c.Close()
	if c.Len() != len(uniq) {
		return bt, fmt.Errorf("batch: reopened cache holds %d records, want %d", c.Len(), len(uniq))
	}
	return bt, nil
}
