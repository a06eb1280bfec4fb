package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tinyRun runs a workload at its test-only size.
func tinyRun(t *testing.T, name string, workers int, trace bool) *result {
	t.Helper()
	res, err := run(config{
		workload: name, seed: defaultSeed, seconds: time.Second, trace: trace,
		workers: workers, work: t.TempDir(), tiny: true,
	}, os.Stderr)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct {
		t.Fatalf("%s: incorrect run: failed %d of %d, problems %v", name, res.Failed, res.Attempted, res.Problems)
	}
	return res
}

// TestEveryWorkloadReportsEveryMetric runs each workload traced at its
// tiny size and checks that both metric sets come out with their units,
// and that the last output line is the contract line naming exactly the
// traced set.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			res := tinyRun(t, w.Name, 2, true)
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayerDefs()...) {
				s, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("metric %s missing", d.Name)
					continue
				}
				if s.Unit != d.Unit {
					t.Errorf("metric %s has unit %q, want %q", d.Name, s.Unit, d.Unit)
				}
			}
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
			for _, name := range []string{"workloads.build_us_per_task", "tdg.replay_ns_per_task", "rts.host_ns_per_event", "exp.overhead_us_per_run", "batch.get_us", "batch.put_us", "batch.open_us_per_record"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("time-valued layer metric %s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			var out bytes.Buffer
			if err := report(&out, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, d := range perLayerDefs() {
				if !strings.Contains(out.String(), "\n"+d.Name+" ") {
					t.Errorf("output has no %q line", d.Name)
				}
			}
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			var keys []string
			for k := range last {
				keys = append(keys, k)
			}
			if len(keys) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Fatalf("last line has keys %v, want correct, attempted, failed, metrics", keys)
			}
			var metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			}
			if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(perLayerDefs()) {
				t.Errorf("contract line has %d metrics, want the %d per-layer ones", len(metrics), len(perLayerDefs()))
			}
			for _, d := range perLayerDefs() {
				if m, ok := metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("contract line metric %s = %+v", d.Name, m)
				}
			}
			if len(res.TraceFiles) != 2 {
				t.Errorf("trace files %v, want spans and CPU profile", res.TraceFiles)
			}
		})
	}
}

// TestDigestsRepeatAcrossRunsAndWorkers: a workload's digest depends on
// its seed alone — not on the run or the worker count.
func TestDigestsRepeatAcrossRunsAndWorkers(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			a := tinyRun(t, w.Name, 1, false)
			b := tinyRun(t, w.Name, 2, false)
			c := tinyRun(t, w.Name, 2, false)
			if a.Digest == "" || a.Digest != b.Digest || b.Digest != c.Digest {
				t.Errorf("digests differ: 1 worker %s, 2 workers %s then %s", a.Digest, b.Digest, c.Digest)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCatalog: BENCHMARK.json at the repository root
// lists exactly the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Workloads, workloadDefs) {
		t.Errorf("workloads %+v, want %+v", bf.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, want %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayerDefs()) {
		t.Errorf("per_layer %+v, want %+v", bf.PerLayer, perLayerDefs())
	}
	if !reflect.DeepEqual(bf.Paths, []string{"perfbench"}) || !reflect.DeepEqual(bf.Command, []string{"bash", "perfbench/run.sh"}) {
		t.Errorf("paths %v, command %v", bf.Paths, bf.Command)
	}
}
