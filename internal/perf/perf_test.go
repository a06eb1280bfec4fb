package perf

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := NewFile(0.4, 42)
	f.Results = []Result{
		{Name: "a", Kind: KindBench, Iterations: 10, NsPerOp: 123.4, AllocsPerOp: 7, BytesPerOp: 512},
		{Name: "checksum/X", Kind: KindChecksum, Checksum: "00deadbeef001234"},
	}
	path := filepath.Join(dir, "BENCH_1.json")
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || got.Scale != 0.4 || got.Seed != 42 {
		t.Fatalf("header round-trip: %+v", got)
	}
	if len(got.Results) != 2 || got.Results[0] != f.Results[0] || got.Results[1] != f.Results[1] {
		t.Fatalf("results round-trip: %+v", got.Results)
	}
}

func TestReadFileRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_1.json")
	if err := os.WriteFile(path, []byte(`{"schema": 999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong-schema read error = %v", err)
	}
}

func TestNextBenchPath(t *testing.T) {
	dir := t.TempDir()
	p, err := NextBenchPath(dir)
	if err != nil || filepath.Base(p) != "BENCH_1.json" {
		t.Fatalf("empty dir: %q, %v", p, err)
	}
	for _, name := range []string{"BENCH_1.json", "BENCH_3.json", "BENCH_x.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err = NextBenchPath(dir)
	if err != nil || filepath.Base(p) != "BENCH_4.json" {
		t.Fatalf("numbered dir: %q, %v", p, err)
	}
	files, err := ListBenchFiles(dir)
	if err != nil || len(files) != 2 ||
		filepath.Base(files[0]) != "BENCH_1.json" || filepath.Base(files[1]) != "BENCH_3.json" {
		t.Fatalf("ListBenchFiles = %v, %v", files, err)
	}
}

func bench(name string, ns float64, allocs int64) Result {
	return Result{Name: name, Kind: KindBench, NsPerOp: ns, AllocsPerOp: allocs}
}

func TestCompareGates(t *testing.T) {
	base := NewFile(0.4, 42)
	base.Results = []Result{
		bench("fast", 100, 10),
		bench("slow", 1000, 100),
		{Name: "checksum/P", Kind: KindChecksum, Checksum: "aa"},
		bench("gone", 5, 5),
	}
	cur := NewFile(0.4, 42)
	cur.Results = []Result{
		bench("fast", 114, 10),                                   // +14% ns: inside a 15% gate
		bench("slow", 1200, 131),                                 // +20% ns, +31% allocs: both regress
		{Name: "checksum/P", Kind: KindChecksum, Checksum: "bb"}, // drift: hard fail
		bench("new-entry", 1, 1),
	}
	rep, err := Compare(base, cur, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	// slow ns, slow allocs, checksum drift, plus the dropped "gone"
	// entry: losing coverage must not pass the gate.
	if rep.Regressions != 4 {
		t.Fatalf("Regressions = %d, want 4 (slow ns, slow allocs, checksum, dropped entry)\n%s", rep.Regressions, rep.Render())
	}
	byKey := map[string]bool{}
	for _, d := range rep.Deltas {
		byKey[d.Name+"|"+d.Metric] = d.Regression
	}
	if byKey["fast|ns/op"] || !byKey["slow|ns/op"] || !byKey["slow|allocs/op"] || !byKey["checksum/P|checksum"] {
		t.Fatalf("wrong gate decisions:\n%s", rep.Render())
	}
	if len(rep.Missing) != 2 {
		t.Fatalf("Missing = %v, want new-entry + gone", rep.Missing)
	}
	out := rep.Render()
	for _, want := range []string{"REGRESSED", "aa -> bb", "4 regression(s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
	// The portable gate waives ns/op only: slow allocs, checksum and the
	// dropped entry still bind.
	rep.IgnoreMetric("ns/op")
	if rep.Regressions != 3 {
		t.Fatalf("after IgnoreMetric(ns/op): Regressions = %d, want 3\n%s", rep.Regressions, rep.Render())
	}
	if !strings.Contains(rep.Render(), "over tolerance (ignored)") {
		t.Fatalf("ignored delta not marked:\n%s", rep.Render())
	}
}

func TestCompareRejectsMismatchedParams(t *testing.T) {
	a := NewFile(0.4, 42)
	b := NewFile(0.2, 42)
	if _, err := Compare(a, b, 0.15); err == nil {
		t.Fatal("scale mismatch not rejected")
	}
	c := NewFile(0.4, 7)
	if _, err := Compare(a, c, 0.15); err == nil {
		t.Fatal("seed mismatch not rejected")
	}
	if _, err := Compare(a, a, -1); err == nil {
		t.Fatal("negative tolerance not rejected")
	}
}

// TestChecksumsDeterministic: the checksum pass must be bit-identical
// across repeated in-process runs — it is the cross-machine correctness
// gate, so any nondeterminism here invalidates the harness.
func TestChecksumsDeterministic(t *testing.T) {
	a, err := Checksums(0.03, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Checksums(0.03, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("checksum %d drifted: %+v vs %+v", i, a[i], b[i])
		}
		if len(a[i].Checksum) != 16 {
			t.Fatalf("checksum %q not 16 hex digits", a[i].Checksum)
		}
	}
}

// TestSuiteQuick runs the full suite at minimal settings and checks every
// entry reports sane metrics.
func TestSuiteQuick(t *testing.T) {
	f, err := Run(Options{Scale: 0.02, Seed: 7, BenchTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != SchemaVersion || f.Scale != 0.02 || f.Seed != 7 {
		t.Fatalf("header: %+v", f)
	}
	var benches, sums int
	for _, r := range f.Results {
		switch r.Kind {
		case KindBench:
			benches++
			if r.NsPerOp <= 0 || r.Iterations <= 0 {
				t.Fatalf("%s: bad bench metrics %+v", r.Name, r)
			}
		case KindChecksum:
			sums++
			if len(r.Checksum) != 16 {
				t.Fatalf("%s: bad checksum %q", r.Name, r.Checksum)
			}
		default:
			t.Fatalf("%s: unknown kind %q", r.Name, r.Kind)
		}
	}
	if benches < 10 || sums != 9 {
		t.Fatalf("suite shape: %d benches, %d checksums", benches, sums)
	}
	// The engine microbenchmarks must report events/sec.
	for _, r := range f.Results {
		if strings.HasPrefix(r.Name, "engine/") && r.EventsPerSec <= 0 {
			t.Fatalf("%s: no events/sec", r.Name)
		}
	}
}

// TestMeasureAllocsIgnoreSetup: a benchmark's fixed set-up allocations
// cancel out of allocs/op even when the growth loop settles at n = 1
// (a bench time of 1ns forces it, the way a host stall can at a 1ms
// bench time), while real per-op allocations are still counted.
func TestMeasureAllocsIgnoreSetup(t *testing.T) {
	var sink [][]byte
	bench := func(perOp int) benchFunc {
		return func(n int) (int64, error) {
			sink = nil
			for i := 0; i < 4096; i++ { // set-up, like engine/deep-queue's standing queue
				sink = append(sink, make([]byte, 64))
			}
			for i := 0; i < n*perOp; i++ {
				sink[i%len(sink)] = make([]byte, 64)
			}
			return 0, nil
		}
	}
	for _, perOp := range []int{0, 8} {
		res, err := measure("setup", bench(perOp), time.Nanosecond)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 1 || res.AllocsPerOp != int64(perOp) {
			t.Errorf("perOp=%d: %d iterations, %d allocs/op; want 1 iteration, %d allocs/op",
				perOp, res.Iterations, res.AllocsPerOp, perOp)
		}
	}
}
