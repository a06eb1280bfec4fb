package cata

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

func TestPolicyRoundTrip(t *testing.T) {
	for _, p := range AllPolicies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("bogus policy parsed")
	}
}

func TestPolicyGroups(t *testing.T) {
	if len(AllPolicies()) != 6 || len(Fig4Policies()) != 4 || len(Fig5Policies()) != 3 {
		t.Fatal("policy group sizes wrong")
	}
}

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	// Six paper benchmarks, five synthetic shapes, two trace importers.
	if len(ws) != 13 {
		t.Fatalf("Workloads = %d, want 13", len(ws))
	}
	if ws[0].Name != "blackscholes" || ws[5].Name != "ferret" {
		t.Fatal("paper benchmarks must come first, in paper order")
	}
	for _, w := range ws {
		if w.Description == "" {
			t.Fatalf("workload %s has no description", w.Name)
		}
		switch {
		case w.FileBacked:
			if w.Tasks != 0 {
				t.Fatalf("file-backed workload %s reports %d tasks", w.Name, w.Tasks)
			}
			if len(w.Params) == 0 {
				t.Fatalf("file-backed workload %s documents no parameters", w.Name)
			}
		default:
			if w.Tasks < 100 {
				t.Fatalf("workload %s underspecified: %+v", w.Name, w)
			}
		}
	}
}

func TestRunBuiltinWorkload(t *testing.T) {
	res, err := Run(RunConfig{
		Workload: "dedup", Policy: PolicyCATA,
		FastCores: 4, Cores: 8, Scale: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || res.Joules <= 0 || res.EDP <= 0 || res.TasksRun == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.ReconfigOps == 0 || res.ReconfigLatencyAvg <= 0 {
		t.Fatal("CATA reconfiguration stats missing")
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	if _, err := Run(RunConfig{Workload: "nope", Policy: PolicyFIFO, FastCores: 4}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestCustomProgram(t *testing.T) {
	heavy := NewTaskType("heavy", 1)
	light := NewTaskType("light", 0)
	if heavy.Name() != "heavy" || heavy.Criticality() != 1 || light.Criticality() != 0 {
		t.Fatal("task type accessors wrong")
	}
	p := NewProgram("demo")
	chain := p.NewToken()
	for i := 0; i < 6; i++ {
		p.Task(TaskSpec{Type: heavy, Duration: 2 * time.Millisecond,
			MemFraction: 0.3, Ins: []Token{chain}, Outs: []Token{chain}})
		for j := 0; j < 4; j++ {
			p.Task(TaskSpec{Type: light, Duration: 500 * time.Microsecond})
		}
	}
	p.Barrier()
	if p.Tasks() != 30 {
		t.Fatalf("Tasks = %d", p.Tasks())
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{Program: p, Policy: PolicyCATARSU, FastCores: 2, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 30 {
		t.Fatalf("TasksRun = %d", res.TasksRun)
	}
	// The serial heavy chain bounds the makespan from below: 6 tasks that
	// even at 2 GHz take >= 2ms×(0.35+0.3) each... conservatively 6ms.
	if res.Makespan < 6*time.Millisecond {
		t.Fatalf("makespan %v breaks the chain bound", res.Makespan)
	}
}

func TestCustomProgramErrors(t *testing.T) {
	p := NewProgram("bad")
	p.Task(TaskSpec{Type: nil, Duration: time.Millisecond})
	if p.Err() == nil {
		t.Fatal("nil type not rejected")
	}
	if _, err := Run(RunConfig{Program: p, Policy: PolicyFIFO, FastCores: 1, Cores: 2}); err == nil {
		t.Fatal("Run accepted broken program")
	}
	p2 := NewProgram("bad2")
	p2.Task(TaskSpec{Type: NewTaskType("x", 0), Duration: -time.Second})
	if p2.Err() == nil {
		t.Fatal("negative duration not rejected")
	}
	p3 := NewProgram("bad3")
	p3.Task(TaskSpec{Type: NewTaskType("x", 0), Duration: time.Millisecond, MemFraction: 2})
	if p3.Err() == nil {
		t.Fatal("bad MemFraction not rejected")
	}
	p4 := NewProgram("empty")
	if p4.Err() == nil {
		t.Fatal("empty program not rejected")
	}
}

func TestMatrixSmall(t *testing.T) {
	m, err := RunMatrix(MatrixConfig{
		Policies:  []Policy{PolicyFIFO, PolicyCATA},
		FastCores: []int{2, 4},
		Workloads: []string{"swaptions"},
		Cores:     8,
		Seeds:     []uint64{42},
		Scale:     0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Speedup("swaptions", PolicyFIFO, 4); v != 1 {
		t.Fatalf("FIFO speedup = %v", v)
	}
	if v := m.Speedup("swaptions", PolicyCATA, 4); v <= 0 {
		t.Fatalf("CATA speedup = %v", v)
	}
	if v := m.AvgNormEDP(PolicyCATA, 4); v <= 0 {
		t.Fatalf("CATA avg EDP = %v", v)
	}
	for _, tbl := range []string{m.SpeedupTable(), m.EDPTable()} {
		if !strings.Contains(tbl, "swaptions") || !strings.Contains(tbl, "average") {
			t.Fatalf("table malformed:\n%s", tbl)
		}
	}
}

func TestStaticTables(t *testing.T) {
	if !strings.Contains(RSUCostTable(), "103") {
		t.Fatal("RSU cost table missing 32-core bits")
	}
	if !strings.Contains(TableI(), "25µs") {
		t.Fatal("Table I missing transition latency")
	}
}

func TestVCAnalysisTable(t *testing.T) {
	tbl, err := VCAnalysisTable(4, 42, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl, "fluidanimate") || !strings.Contains(tbl, "overhead") {
		t.Fatalf("VC table malformed:\n%s", tbl)
	}
}

func TestClaimsPlumbing(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix in -short mode")
	}
	m, err := RunMatrix(MatrixConfig{
		Policies:  AllPolicies(),
		FastCores: []int{4},
		Workloads: []string{"swaptions", "dedup", "bodytrack", "ferret", "blackscholes", "fluidanimate"},
		Cores:     8,
		Seeds:     []uint64{42},
		Scale:     0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := m.Claims()
	if len(cs) == 0 {
		t.Fatal("no claims evaluated")
	}
	out := ClaimsTable(cs)
	if !strings.Contains(out, "CATA") {
		t.Fatalf("claims table malformed:\n%s", out)
	}
}

func TestExportDOTBuiltinWorkloads(t *testing.T) {
	for _, w := range []string{"dedup", "fluidanimate"} {
		var buf bytes.Buffer
		if err := ExportDOT(&buf, w, 42, 0.1, nil); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		out := buf.String()
		if !strings.Contains(out, "digraph tdg") || !strings.Contains(out, "->") {
			t.Fatalf("%s: DOT lacks structure:\n%.200s", w, out)
		}
	}
	if err := ExportDOT(&bytes.Buffer{}, "nope", 0, 0, nil); err == nil {
		t.Fatal("unknown workload exported")
	}
}

func TestExtensionPoliciesPublic(t *testing.T) {
	if len(ExtensionPolicies()) != 3 {
		t.Fatal("extension policies wrong")
	}
	for _, p := range ExtensionPolicies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v failed", p)
		}
		res, err := Run(RunConfig{Workload: "dedup", Policy: p, FastCores: 2, Cores: 4, Scale: 0.05})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.TasksRun == 0 {
			t.Fatalf("%v ran no tasks", p)
		}
	}
}

func TestTraceToPublic(t *testing.T) {
	var buf bytes.Buffer
	res, err := Run(RunConfig{
		Workload: "swaptions", Policy: PolicyCATA, FastCores: 2, Cores: 4,
		Scale: 0.05, TraceTo: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgUtilization <= 0 {
		t.Fatal("no utilization")
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Fatal("trace not written")
	}
}

// TestMatrixConfigsDefaults: the catad sweep expansion
// (MatrixConfig.Configs) applies the shared matrix defaults — the FIFO
// baseline (matching what RunMatrix executes for an empty Policies
// list), the six paper benchmarks, the paper's fast-core sweep, the
// standard seed triple — and expands in deterministic workloads ×
// policies × fast × seeds order.
func TestMatrixConfigsDefaults(t *testing.T) {
	cfgs := MatrixConfig{}.Configs()
	want := 6 * 1 * 3 * 3 // paper benchmarks × FIFO × fast × seeds
	if len(cfgs) != want {
		t.Fatalf("default expansion has %d configs, want %d", len(cfgs), want)
	}
	first := cfgs[0]
	if first.Policy != PolicyFIFO || first.FastCores != 8 || first.Seed != 42 {
		t.Fatalf("first config = %+v", first)
	}

	small := MatrixConfig{
		Workloads: []string{"dedup"},
		Policies:  []Policy{PolicyCATA},
		FastCores: []int{16},
		Seeds:     []uint64{7, 8},
		Scale:     0.5,
	}.Configs()
	if len(small) != 2 || small[0].Seed != 7 || small[1].Seed != 8 || small[0].Scale != 0.5 {
		t.Fatalf("explicit expansion = %+v", small)
	}
}

// TestPolicySpecsPublic: the spec grammar works end to end through the
// public surface — parse, canonicalize, validate, and run.
func TestPolicySpecsPublic(t *testing.T) {
	// ParsePolicy canonicalizes name casing and key order.
	p, err := ParsePolicy("amtha:tiebreak=accum")
	if err != nil || p != Policy("AMTHA:tiebreak=accum") {
		t.Fatalf("ParsePolicy spec = %v, %v", p, err)
	}
	if p, err := ParsePolicy("cata+rsu"); err != nil || p != PolicyCATARSU {
		t.Fatalf("case-folded parse = %v, %v", p, err)
	}

	// ValidatePolicy accepts what ParsePolicy accepts and rejects
	// hostile specs without running anything.
	if err := ValidatePolicy("CATS+BL:theta=0.5"); err != nil {
		t.Fatalf("ValidatePolicy: %v", err)
	}
	for _, bad := range []string{
		"NoSuchPolicy", "AMTHA:tiebreak=bogus", "AMTHA:bogus=1",
		"CATS+BL:theta=0", "CATS+BL:theta=two", "FIFO:hint=1", "",
	} {
		if err := ValidatePolicy(bad); err == nil {
			t.Errorf("ValidatePolicy(%q) accepted a hostile spec", bad)
		}
	}

	// A parameterized spec runs through the public Run.
	res, err := Run(RunConfig{
		Workload: "dedup", Policy: Policy("AMTHA:tiebreak=spread"),
		FastCores: 4, Scale: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("AMTHA result = %+v", res)
	}
}

// TestRunConfigValidate: Validate checks every spec a config carries —
// workload, policy and arrival process — and the machine sizes without
// running anything, refuses file-backed workloads, and lets a custom
// Program stand in for the workload spec.
func TestRunConfigValidate(t *testing.T) {
	good := RunConfig{Workload: "layered:width=4", Policy: "cats+bl:theta=0.5", Arrivals: "poisson:lambda=2000,jobs=4"}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate(%+v): %v", good, err)
	}
	if err := (RunConfig{Program: NewProgram("custom")}).Validate(); err != nil {
		t.Fatalf("custom program: %v", err)
	}
	for _, bad := range []RunConfig{
		{},
		{Workload: "layered:dur=NaN"},
		{Workload: "dedup", Policy: "AMTHA:tiebreak=bogus"},
		{Workload: "dedup", Arrivals: "poisson:lambda=NaN"},
		{Workload: "dedup", Arrivals: "fixed:interval=1ms,lambda=5"},
		{Workload: "trace:file=capture.json"},
		{Workload: "dedup", FastCores: 64},
		{Workload: "dedup", Cores: 8, FastCores: 9},
		{Workload: "dedup", Cores: -1},
		{Workload: "dedup", Cores: 1 << 30},
		{Workload: "dedup", Scale: math.NaN()},
		{Workload: "dedup", Scale: math.Inf(1)},
		{Workload: "dedup", Scale: -0.5},
		{Workload: "dedup", TransitionLatency: -5},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a bad config", bad)
		}
	}
}

// TestSizeChecksGuardRuns: the size check Validate applies at admission
// also guards the library's run paths. Run returns an error and RunBatch
// reports it as that run's own error, where a bad budget used to panic
// in the machine or a reconfiguration module.
func TestSizeChecksGuardRuns(t *testing.T) {
	bad := []RunConfig{
		{Workload: "dedup", FastCores: 64},
		{Workload: "dedup", Policy: PolicyCATA, FastCores: -3},
		{Workload: "dedup", Policy: PolicyCATARSU, FastCores: 64},
		{Workload: "dedup", Policy: PolicyTurboMode, FastCores: 33},
		{Workload: "dedup", Policy: PolicyCATA3L, FastCores: 64},
		{Workload: "dedup", Cores: -1},
		{Workload: "dedup", Cores: 1 << 30},
		{Workload: "dedup", Scale: math.NaN()},
		{Workload: "dedup", TransitionLatency: -5},
	}
	for _, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run(%+v) accepted a bad size", cfg)
		}
	}
	good := RunConfig{Workload: "dedup", Scale: 0.05}
	rs, err := RunBatch(context.Background(), append([]RunConfig{good}, bad...), BatchOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Err != nil {
		t.Fatalf("good run failed beside bad ones: %v", rs[0].Err)
	}
	for _, r := range rs[1:] {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "out of range") && !strings.Contains(r.Err.Error(), "negative") {
			t.Errorf("RunBatch(%+v) error = %v, want the size check's", r.Config, r.Err)
		}
	}
}

// TestPolicyDocsDescribeParams: PolicyDocs carries the typed parameter
// docs, and every documented label parses back to its bare policy.
func TestPolicyDocsDescribeParams(t *testing.T) {
	byLabel := map[string]PolicyInfo{}
	for _, d := range PolicyDocs() {
		byLabel[d.Label] = d
	}
	bl, ok := byLabel["CATS+BL"]
	if !ok || len(bl.Params) != 1 || bl.Params[0].Key != "theta" || bl.Params[0].Kind != "float" {
		t.Fatalf("CATS+BL docs = %+v", bl)
	}
	am, ok := byLabel["AMTHA"]
	if !ok || !am.Extension || len(am.Params) != 1 {
		t.Fatalf("AMTHA docs = %+v", am)
	}
	if p := am.Params[0]; p.Key != "tiebreak" || p.Kind != "enum" ||
		strings.Join(p.Choices, ",") != "index,spread,accum" {
		t.Fatalf("AMTHA param = %+v", p)
	}
}
