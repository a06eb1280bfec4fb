package cata_test

// One benchmark per table and figure of the paper's evaluation section
// (DESIGN.md §5 maps each to its experiment ID). Figure benches run the
// same harness cmd/catafig uses, at a reduced scale and single seed so a
// bench iteration stays around a second; run cmd/catafig for the
// full-scale numbers recorded in EXPERIMENTS.md.

import (
	"errors"
	"testing"
	"time"

	"cata"
)

const (
	benchScale = 0.4
	benchSeed  = 42
)

// BenchmarkTable1Config regenerates Table I (experiment T1).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if cata.TableI() == "" {
			b.Fatal("empty Table I")
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: speedup and normalized EDP of
// FIFO, CATS+BL, CATS+SA and CATA over six benchmarks × {8,16,24} fast
// cores (experiment F4).
func BenchmarkFigure4(b *testing.B) {
	benchMatrix(b, cata.Fig4Policies())
}

// BenchmarkFigure5 regenerates Figure 5: CATA, CATA+RSU and TurboMode
// (experiment F5).
func BenchmarkFigure5(b *testing.B) {
	benchMatrix(b, cata.Fig5Policies())
}

func benchMatrix(b *testing.B, policies []cata.Policy) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := figureMatrix(policies); err != nil {
			b.Fatal(err)
		}
	}
}

// figureMatrix is one operation of the figure benchmarks: the figure's
// matrix at the bench scale and seed, tables rendered.
func figureMatrix(policies []cata.Policy) error {
	m, err := cata.RunMatrix(cata.MatrixConfig{
		Policies: policies,
		Seeds:    []uint64{benchSeed},
		Scale:    benchScale,
	})
	if err != nil {
		return err
	}
	if m.SpeedupTable() == "" || m.EDPTable() == "" {
		return errors.New("empty tables")
	}
	return nil
}

// allocSlack is how far above its pin an allocation count may rise
// before TestBenchAllocs fails: 15%, the tolerance of the bench gate
// the pins were first recorded for.
const allocSlack = 0.15

// TestBenchAllocs pins the heap allocations of one operation of the
// figure and workload benchmarks, and of a 50-job run of perfbench's
// open-soak template, to their measured counts, with allocSlack headroom
// upward. Allocation counts do not depend on the host, so unlike the
// benchmarks' timings they can gate every test run. A change that
// allocates more fails here; one that allocates much less should lower
// its pin.
func TestBenchAllocs(t *testing.T) {
	pins := []struct {
		name string
		pin  float64
		op   func() error
	}{
		{"figure4", 50453, func() error { return figureMatrix(cata.Fig4Policies()) }},
		{"figure5", 51208, func() error { return figureMatrix(cata.Fig5Policies()) }},
		{"blackscholes", 707, func() error { return workloadRun("blackscholes") }},
		{"swaptions", 704, func() error { return workloadRun("swaptions") }},
		{"fluidanimate", 2436, func() error { return workloadRun("fluidanimate") }},
		{"bodytrack", 1106, func() error { return workloadRun("bodytrack") }},
		{"dedup", 1210, func() error { return workloadRun("dedup") }},
		{"ferret", 1306, func() error { return workloadRun("ferret") }},
		{"open-soak", 4198, openSoakRun},
	}
	for _, p := range pins {
		var err error
		got := testing.AllocsPerRun(1, func() { err = p.op() })
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		t.Logf("%s: %.0f allocations per op, pinned %.0f", p.name, got, p.pin)
		if got > p.pin*(1+allocSlack) {
			t.Errorf("%s allocates %.0f objects per op, pinned %.0f (+%.0f%% allowed)", p.name, got, p.pin, 100*allocSlack)
		}
	}
}

// BenchmarkVCAnalysis regenerates the §V-C reconfiguration-cost analysis
// (experiment A1).
func BenchmarkVCAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := cata.VCAnalysisTable(16, benchSeed, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if tbl == "" {
			b.Fatal("empty analysis")
		}
	}
}

// BenchmarkRSUCost regenerates the §III-B.4 RSU cost table (experiment A2).
func BenchmarkRSUCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if cata.RSUCostTable() == "" {
			b.Fatal("empty cost table")
		}
	}
}

// BenchmarkClaims evaluates the headline §V claims (experiment A3).
func BenchmarkClaims(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := cata.RunMatrix(cata.MatrixConfig{
			Policies: cata.AllPolicies(),
			Seeds:    []uint64{benchSeed},
			Scale:    benchScale,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Claims()) == 0 {
			b.Fatal("no claims")
		}
	}
}

// BenchmarkWorkload measures one simulation per benchmark under CATA —
// the per-application series both figures are built from.
func BenchmarkWorkload(b *testing.B) {
	for _, w := range cata.Workloads() {
		if w.FileBacked {
			continue // needs a file parameter; nothing to benchmark
		}
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := workloadRun(w.Name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// workloadRun is one operation of BenchmarkWorkload: one CATA run of the
// workload at 16 fast cores, the bench scale and seed.
func workloadRun(workload string) error {
	res, err := cata.Run(cata.RunConfig{
		Workload: workload, Policy: cata.PolicyCATA,
		FastCores: 16, Seed: benchSeed, Scale: benchScale,
	})
	if err != nil {
		return err
	}
	if res.TasksRun == 0 {
		return errors.New("no tasks")
	}
	return nil
}

// openSoakRun is one run of perfbench's open-soak template at 50 jobs:
// Poisson arrivals of fork-join jobs into one CATA machine.
func openSoakRun() error {
	res, err := cata.Run(cata.RunConfig{
		Workload: "forkjoin:width=16,phases=2,dur=200", Policy: cata.PolicyCATA,
		FastCores: 16, Seed: benchSeed,
		Arrivals: "poisson:lambda=3000,jobs=50,deadline=2ms,cap=64,window=5ms",
	})
	if err != nil {
		return err
	}
	if res.Open == nil || res.Open.JobsCompleted == 0 {
		return errors.New("no open-system jobs completed")
	}
	return nil
}

// BenchmarkAblationTransitionLatency sweeps the DVFS transition latency
// (the dual-rail assumption of §III) for CATA.
func BenchmarkAblationTransitionLatency(b *testing.B) {
	for _, lat := range []time.Duration{time.Microsecond, 25 * time.Microsecond, 200 * time.Microsecond} {
		b.Run(lat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := cata.Run(cata.RunConfig{
					Workload: "swaptions", Policy: cata.PolicyCATA,
					FastCores: 16, Scale: benchScale, TransitionLatency: lat,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBudget sweeps the power budget for CATA+RSU.
func BenchmarkAblationBudget(b *testing.B) {
	for _, fast := range []int{4, 16, 28} {
		b.Run(map[int]string{4: "fast4", 16: "fast16", 28: "fast28"}[fast], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := cata.Run(cata.RunConfig{
					Workload: "fluidanimate", Policy: cata.PolicyCATARSU,
					FastCores: fast, Scale: benchScale,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
