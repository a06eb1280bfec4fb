package cata_test

// Golden regression fixtures: one small committed JSON per policy,
// capturing every deterministic output of a tiny fixed-seed run of the
// paper's six workloads. Any drift in makespans, energy, or scheduler
// counters fails with a field-level diff. The fixtures pin simulation
// *behavior*; performance work on the engine must land with zero golden
// diffs (TestPolicyChecksums in internal/exp pins the same property at
// larger scale, for every registered policy).
//
// Regenerate intentionally with:
//
//	go test -run TestGoldenFixtures -update .

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"cata/internal/exp"
	"cata/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures instead of comparing")

const (
	goldenScale = 0.05
	goldenSeed  = 7
	goldenFast  = 8
	goldenCores = 16
)

// goldenFile is one policy's fixture.
type goldenFile struct {
	Policy    string       `json:"policy"`
	Scale     float64      `json:"scale"`
	Seed      uint64       `json:"seed"`
	FastCores int          `json:"fast_cores"`
	Cores     int          `json:"cores"`
	Cells     []goldenCell `json:"cells"`
}

// goldenCell holds the deterministic outputs of one workload run. Every
// field compares exactly: energy values are the shortest decimal strings
// that round-trip to their float64 bits. The model rounds every float
// product explicitly, so no architecture fuses one into a multiply-add
// (make fma-check), and TestPolicyChecksums' float pins check those bits
// on every architecture CI runs.
type goldenCell struct {
	Workload      string `json:"workload"`
	MakespanPs    int64  `json:"makespan_ps"`
	Tasks         int64  `json:"tasks"`
	Critical      int64  `json:"critical"`
	Inversions    int64  `json:"inversions"`
	Steals        int64  `json:"steals"`
	StaticBinding int64  `json:"static_binding"`
	Transitions   int64  `json:"transitions"`
	ReconfigOps   int64  `json:"reconfig_ops"`
	Joules        string `json:"joules"`
	EDP           string `json:"edp"`
}

func goldenWorkloads() []string { return workloads.Names() }

func buildGolden(t *testing.T, policy exp.Policy) goldenFile {
	t.Helper()
	g := goldenFile{
		Policy:    policy.String(),
		Scale:     goldenScale,
		Seed:      goldenSeed,
		FastCores: goldenFast,
		Cores:     goldenCores,
	}
	for _, w := range goldenWorkloads() {
		m, err := exp.Run(exp.RunSpec{
			Workload: w, Policy: policy,
			FastCores: goldenFast, Cores: goldenCores,
			Seed: goldenSeed, Scale: goldenScale,
		})
		if err != nil {
			t.Fatalf("golden run %v/%s: %v", policy, w, err)
		}
		g.Cells = append(g.Cells, goldenCell{
			Workload:      w,
			MakespanPs:    int64(m.Makespan),
			Tasks:         m.TasksRun,
			Critical:      m.CriticalTasks,
			Inversions:    m.Inversions,
			Steals:        m.Steals,
			StaticBinding: m.StaticBinding,
			Transitions:   m.Transitions,
			ReconfigOps:   m.ReconfigOps,
			Joules:        strconv.FormatFloat(m.Joules, 'g', -1, 64),
			EDP:           strconv.FormatFloat(m.EDP, 'g', -1, 64),
		})
	}
	return g
}

func goldenPath(policy exp.Policy) string {
	return filepath.Join("testdata", "golden", policy.String()+".json")
}

func TestGoldenFixtures(t *testing.T) {
	for _, policy := range append(exp.AllPolicies(), exp.ExtensionPolicies()...) {
		t.Run(policy.String(), func(t *testing.T) {
			got := buildGolden(t, policy)
			path := goldenPath(policy)
			if *updateGolden {
				b, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run `go test -run TestGoldenFixtures -update .`): %v", err)
			}
			var want goldenFile
			if err := json.Unmarshal(b, &want); err != nil {
				t.Fatalf("corrupt fixture %s: %v", path, err)
			}
			diffGolden(t, want, got)
		})
	}
}

// diffGolden reports every drifted field by name, not just the first, so
// a regression reads as a story rather than a blob comparison.
func diffGolden(t *testing.T, want, got goldenFile) {
	t.Helper()
	if want.Scale != got.Scale || want.Seed != got.Seed ||
		want.FastCores != got.FastCores || want.Cores != got.Cores {
		t.Fatalf("fixture parameters changed: fixture %+v vs test %+v — regenerate with -update",
			headerOf(want), headerOf(got))
	}
	if len(want.Cells) != len(got.Cells) {
		t.Fatalf("cell count: fixture %d vs current %d", len(want.Cells), len(got.Cells))
	}
	for i, w := range want.Cells {
		g := got.Cells[i]
		if w.Workload != g.Workload {
			t.Errorf("cell %d: workload %q vs %q", i, w.Workload, g.Workload)
			continue
		}
		cmp := func(field string, want, got any) {
			if want != got {
				t.Errorf("%s: %s drifted: fixture %v, current %v", w.Workload, field, want, got)
			}
		}
		cmp("makespan_ps", w.MakespanPs, g.MakespanPs)
		cmp("tasks", w.Tasks, g.Tasks)
		cmp("critical", w.Critical, g.Critical)
		cmp("inversions", w.Inversions, g.Inversions)
		cmp("steals", w.Steals, g.Steals)
		cmp("static_binding", w.StaticBinding, g.StaticBinding)
		cmp("transitions", w.Transitions, g.Transitions)
		cmp("reconfig_ops", w.ReconfigOps, g.ReconfigOps)
		cmp("joules", w.Joules, g.Joules)
		cmp("edp", w.EDP, g.EDP)
	}
}

func headerOf(g goldenFile) string {
	return fmt.Sprintf("scale=%g seed=%d fast=%d cores=%d", g.Scale, g.Seed, g.FastCores, g.Cores)
}
