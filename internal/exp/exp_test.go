package exp

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/tdg"
)

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{
		FIFO: "FIFO", CATSBL: "CATS+BL", CATSSA: "CATS+SA",
		CATA: "CATA", CATARSU: "CATA+RSU", TURBO: "TurboMode",
	}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("%v.String() = %q, want %q", p, p.String(), s)
		}
		got, err := ParsePolicy(s)
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy parsed")
	}
}

func TestFigPolicies(t *testing.T) {
	if len(Fig4Policies()) != 4 || Fig4Policies()[0] != FIFO {
		t.Fatal("Fig4Policies wrong")
	}
	if len(Fig5Policies()) != 3 || Fig5Policies()[0] != CATA {
		t.Fatal("Fig5Policies wrong")
	}
	if len(AllPolicies()) != 6 {
		t.Fatal("AllPolicies wrong")
	}
}

func TestRunSingle(t *testing.T) {
	m, err := Run(RunSpec{Workload: "swaptions", Policy: CATA, FastCores: 4, Cores: 8, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Makespan <= 0 || m.Joules <= 0 || m.EDP <= 0 {
		t.Fatalf("degenerate measurement: %+v", m)
	}
	if m.TasksRun == 0 {
		t.Fatal("no tasks ran")
	}
	if m.ReconfigOps == 0 {
		t.Fatal("CATA ran without reconfigurations")
	}
	if m.ReconfigLatencyAvg <= 0 {
		t.Fatal("no reconfiguration latency recorded")
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(RunSpec{Workload: "nope", Policy: FIFO, FastCores: 2}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunCustomProgram(t *testing.T) {
	p := &program.Program{Name: "custom"}
	tt := &tdg.TaskType{Name: "t", Criticality: 1}
	for i := 0; i < 12; i++ {
		p.AddTask(program.TaskSpec{Type: tt, CPUCycles: 400_000})
	}
	m, err := Run(RunSpec{Program: p, Policy: CATARSU, FastCores: 2, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.TasksRun != 12 {
		t.Fatalf("TasksRun = %d", m.TasksRun)
	}
}

func TestEveryPolicyRuns(t *testing.T) {
	for _, p := range AllPolicies() {
		m, err := Run(RunSpec{Workload: "bodytrack", Policy: p, FastCores: 4, Cores: 8, Scale: 0.15})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if m.TasksRun == 0 {
			t.Fatalf("%v: no tasks", p)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := RunSpec{Workload: "fluidanimate", Policy: CATA, FastCores: 4, Cores: 8, Scale: 0.2}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Joules != b.Joules {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v", a.Makespan, a.Joules, b.Makespan, b.Joules)
	}
}

func smallMatrix(t *testing.T, policies []Policy) *Matrix {
	t.Helper()
	m, err := RunMatrix(MatrixSpec{
		Policies:  policies,
		FastCores: []int{2, 4},
		Workloads: []string{"swaptions", "dedup"},
		Cores:     8,
		Seeds:     []uint64{42},
		Scale:     0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMatrixBaselineIsOne(t *testing.T) {
	m := smallMatrix(t, []Policy{FIFO, CATSSA})
	for _, w := range m.Workloads {
		for _, f := range m.FastCores {
			if v := m.Speedup(w, FIFO, f); v != 1.0 {
				t.Fatalf("FIFO speedup = %v", v)
			}
			if v := m.NormEDP(w, FIFO, f); v != 1.0 {
				t.Fatalf("FIFO norm EDP = %v", v)
			}
		}
	}
}

func TestMatrixImplicitBaseline(t *testing.T) {
	// Matrix without FIFO in Policies still normalizes against it.
	m := smallMatrix(t, []Policy{CATA})
	if v := m.Speedup("swaptions", CATA, 4); v <= 0 {
		t.Fatalf("speedup = %v, baseline missing", v)
	}
	if _, ok := m.Cell("swaptions", CATA, 4); !ok {
		t.Fatal("cell missing")
	}
	if cs := m.Cells("swaptions", CATA, 4); len(cs) != 1 {
		t.Fatalf("Cells = %d, want 1 seed", len(cs))
	}
}

func TestMatrixTableRenders(t *testing.T) {
	m := smallMatrix(t, []Policy{FIFO, CATA})
	for _, metric := range []string{"speedup", "edp"} {
		tbl := m.Table(metric)
		for _, want := range []string{"swaptions", "dedup", "average", "CATA/4"} {
			if !strings.Contains(tbl, want) {
				t.Fatalf("%s table missing %q:\n%s", metric, want, tbl)
			}
		}
	}
}

func TestMatrixTablePanicsOnBadMetric(t *testing.T) {
	m := smallMatrix(t, []Policy{FIFO})
	defer func() {
		if recover() == nil {
			t.Fatal("bad metric did not panic")
		}
	}()
	m.Table("latency")
}

func TestVCAnalysis(t *testing.T) {
	rows, err := VCAnalysis(4, 42, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ReconfigOps == 0 {
			t.Fatalf("%s: no ops", r.Workload)
		}
		if r.ReconfigLatencyAvg < sim.Microsecond || r.ReconfigLatencyAvg > 500*sim.Microsecond {
			t.Fatalf("%s: implausible avg latency %v", r.Workload, r.ReconfigLatencyAvg)
		}
		if r.OverheadPct < 0 || r.OverheadPct > 25 {
			t.Fatalf("%s: implausible overhead %v%%", r.Workload, r.OverheadPct)
		}
	}
	tbl := VCTable(rows)
	if !strings.Contains(tbl, "blackscholes") || !strings.Contains(tbl, "overhead") {
		t.Fatalf("VCTable malformed:\n%s", tbl)
	}
}

func TestTableI(t *testing.T) {
	t1 := TableI()
	for _, want := range []string{"32", "2GHz", "1GHz", "25µs"} {
		if !strings.Contains(t1, want) {
			t.Fatalf("TableI missing %q:\n%s", want, t1)
		}
	}
}

// TestPaperClaimsShape is the headline reproduction test: it runs the full
// matrix (reduced scale, two seeds to stay fast) and requires every §V
// claim's qualitative shape to hold.
func TestPaperClaimsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	m, err := RunMatrix(MatrixSpec{
		Policies: AllPolicies(),
		Seeds:    []uint64{42, 1337},
		Scale:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, c := range Claims(m) {
		if !c.Holds {
			failed++
			t.Errorf("claim %s does not hold: %s\n  paper: %s\n  here:  %s",
				c.ID, c.Statement, c.Paper, c.Measured)
		}
	}
	if failed > 0 {
		t.Logf("speedup table:\n%s", m.Table("speedup"))
		t.Logf("edp table:\n%s", m.Table("edp"))
	}
}

// TestHaltAwareExtension: the §V-D-inspired extension must not lose to
// plain CATA+RSU on the IO-heavy pipelines, and must reclaim budget.
func TestHaltAwareExtension(t *testing.T) {
	for _, w := range []string{"dedup", "ferret"} {
		rsuRes, err := Run(RunSpec{Workload: w, Policy: CATARSU, FastCores: 8, Scale: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		haRes, err := Run(RunSpec{Workload: w, Policy: CATARSUHA, FastCores: 8, Scale: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		// Allow 2% tolerance: the re-acquisition transitions are not free.
		if haRes.Makespan > rsuRes.Makespan+rsuRes.Makespan/50 {
			t.Errorf("%s: halt-aware (%v) clearly slower than plain RSU (%v)",
				w, haRes.Makespan, rsuRes.Makespan)
		}
	}
}

func TestExtensionPolicyParse(t *testing.T) {
	p, err := ParsePolicy("CATA+RSU-HA")
	if err != nil || p != CATARSUHA {
		t.Fatalf("ParsePolicy extension: %v, %v", p, err)
	}
	if len(ExtensionPolicies()) != 3 {
		t.Fatal("ExtensionPolicies wrong")
	}
}

func TestTraceExport(t *testing.T) {
	var buf bytes.Buffer
	m, err := Run(RunSpec{
		Workload: "swaptions", Policy: CATA, FastCores: 4, Cores: 8,
		Scale: 0.1, Trace: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	phases := make(map[string]int)
	for _, e := range doc.TraceEvents {
		phases[e.Ph]++
		if e.Ph == "X" && (e.Dur <= 0 || e.Tid < 0 || e.Tid >= 8) {
			t.Fatalf("malformed task span %+v", e)
		}
	}
	// The deep trace carries one "X" span per executed task plus the
	// flight-recorder tracks: metadata, counters, instants, flows.
	if int64(phases["X"]) != m.TasksRun {
		t.Fatalf("trace has %d task spans, ran %d tasks", phases["X"], m.TasksRun)
	}
	if phases["M"] == 0 || phases["C"] == 0 || phases["i"] == 0 {
		t.Fatalf("deep trace missing phases: %v", phases)
	}
	if phases["s"] != phases["f"] {
		t.Fatalf("unbalanced flow events: %v", phases)
	}
}

func TestUtilizationMeasured(t *testing.T) {
	m, err := Run(RunSpec{Workload: "blackscholes", Policy: FIFO, FastCores: 4, Cores: 8, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgUtilization <= 0.05 || m.AvgUtilization > 1.0 {
		t.Fatalf("implausible utilization %v", m.AvgUtilization)
	}
}

// TestMultiLevelExtension: the three-level future-work configuration must
// run every workload with the unit-budget invariant intact and deliver
// results in the same performance band as two-level CATA+RSU.
func TestMultiLevelExtension(t *testing.T) {
	for _, w := range []string{"swaptions", "bodytrack"} {
		two, err := Run(RunSpec{Workload: w, Policy: CATARSU, FastCores: 8, Scale: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		three, err := Run(RunSpec{Workload: w, Policy: CATA3L, FastCores: 8, Scale: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		if three.TasksRun != two.TasksRun {
			t.Fatalf("%s: task counts differ: %d vs %d", w, three.TasksRun, two.TasksRun)
		}
		if three.ReconfigOps == 0 {
			t.Fatalf("%s: three-level unit never moved a core", w)
		}
		// Equal power envelope: the three-level result should be within
		// ±12% of the two-level one (finer granularity changes the
		// schedule but not the budget).
		ratio := float64(three.Makespan) / float64(two.Makespan)
		if ratio < 0.88 || ratio > 1.12 {
			t.Errorf("%s: 3-level makespan ratio %v outside band", w, ratio)
		}
	}
}

// TestStaticBindingVisibility: the §II-C static-binding problem must be
// observable under static-machine policies and largely absent under CATA
// (a finishing task decelerates its core before the worker idles).
func TestStaticBindingVisibility(t *testing.T) {
	fifo, err := Run(RunSpec{Workload: "bodytrack", Policy: FIFO, FastCores: 8, Scale: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if fifo.StaticBinding == 0 {
		t.Fatal("FIFO on a pipeline never exhibited static binding")
	}
	cataRes, err := Run(RunSpec{Workload: "bodytrack", Policy: CATARSU, FastCores: 8, Scale: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if cataRes.StaticBinding >= fifo.StaticBinding {
		t.Fatalf("CATA+RSU static binding (%d) not below FIFO (%d)",
			cataRes.StaticBinding, fifo.StaticBinding)
	}
}

func TestWriteCSV(t *testing.T) {
	m := smallMatrix(t, []Policy{FIFO, CATA})
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rd := csv.NewReader(&buf)
	rows, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Header + 2 workloads x 2 policies x 2 fast-core values.
	if len(rows) != 1+2*2*2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "workload" || rows[0][3] != "speedup" {
		t.Fatalf("header = %v", rows[0])
	}
	for _, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			t.Fatalf("ragged row: %v", row)
		}
		if sp, err := strconv.ParseFloat(row[3], 64); err != nil || sp <= 0 {
			t.Fatalf("bad speedup %q", row[3])
		}
	}
}

// TestPolicyParamsBehavioral: spec parameters actually reach the wired
// policy — CATS+BL's theta moves the criticality threshold, and AMTHA's
// tiebreak default equals the bare spec.
func TestPolicyParamsBehavioral(t *testing.T) {
	run := func(p Policy) Measurement {
		t.Helper()
		m, err := Run(RunSpec{Workload: "dedup", Policy: p, FastCores: 4, Cores: 8, Scale: 0.1})
		if err != nil {
			t.Fatalf("Run(%s): %v", p, err)
		}
		return m
	}

	// theta=1.0 is the declared default: identical to the bare spec.
	bare, dflt := run(CATSBL), run(Policy("CATS+BL:theta=1.0"))
	if bare.Makespan != dflt.Makespan || bare.CriticalTasks != dflt.CriticalTasks {
		t.Fatalf("theta=1.0 differs from bare CATS+BL: %+v vs %+v", dflt, bare)
	}
	// A looser threshold marks strictly more tasks critical.
	loose := run(Policy("CATS+BL:theta=0.1"))
	if loose.CriticalTasks <= bare.CriticalTasks {
		t.Fatalf("theta=0.1 critical = %d, want > %d (theta=1.0)",
			loose.CriticalTasks, bare.CriticalTasks)
	}
}

// TestAMTHATiebreaks: every tiebreak variant runs, the default equals
// the bare spec, and reruns are deterministic.
func TestAMTHATiebreaks(t *testing.T) {
	run := func(p Policy) Measurement {
		t.Helper()
		m, err := Run(RunSpec{Workload: "fluidanimate", Policy: p, FastCores: 4, Cores: 8, Scale: 0.05})
		if err != nil {
			t.Fatalf("Run(%s): %v", p, err)
		}
		return m
	}
	bare := run(AMTHA)
	if bare.Makespan <= 0 {
		t.Fatalf("AMTHA makespan = %v", bare.Makespan)
	}
	if idx := run(Policy("AMTHA:tiebreak=index")); idx.Makespan != bare.Makespan {
		t.Fatalf("tiebreak=index differs from bare AMTHA: %v vs %v", idx.Makespan, bare.Makespan)
	}
	for _, p := range []Policy{"AMTHA:tiebreak=spread", "AMTHA:tiebreak=accum"} {
		first := run(p)
		if first.Makespan <= 0 {
			t.Fatalf("%s makespan = %v", p, first.Makespan)
		}
		if again := run(p); again.Makespan != first.Makespan || again.Joules != first.Joules {
			t.Fatalf("%s not deterministic: %v/%v vs %v/%v",
				p, again.Makespan, again.Joules, first.Makespan, first.Joules)
		}
	}
}
