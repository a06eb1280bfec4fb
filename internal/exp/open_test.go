package exp

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"cata/internal/opensys"
	"cata/internal/spec"
)

// openSpec is the cheap open-system configuration the tests share.
func openSpec(arrivals string) RunSpec {
	return RunSpec{
		Workload:  "forkjoin:width=4,phases=2,dur=50",
		Policy:    CATA,
		FastCores: 8,
		Cores:     8,
		Seed:      42,
		Arrivals:  arrivals,
	}
}

// TestOpenRunGoldenDeterminism pins the satellite requirement end to
// end: the same (spec, seed) pair must reproduce the byte-identical
// percentile report, and a different seed must actually move the
// arrival process.
func TestOpenRunGoldenDeterminism(t *testing.T) {
	spec := openSpec("poisson:lambda=2000,jobs=20,deadline=5ms,cap=4,window=10ms")
	m1, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Open == nil || m2.Open == nil {
		t.Fatal("open-system run returned no Open report")
	}
	j1, err := json.Marshal(m1.Open)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(m2.Open)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("same seed produced different reports:\n%s\n%s", j1, j2)
	}
	if m1.Makespan != m2.Makespan || m1.Joules != m2.Joules {
		t.Fatalf("same seed diverged on closed metrics: %v/%v vs %v/%v",
			m1.Makespan, m1.Joules, m2.Makespan, m2.Joules)
	}
	if m1.Open.JobsCompleted != 20 {
		t.Fatalf("JobsCompleted = %d, want all 20 (cap should not bind here)", m1.Open.JobsCompleted)
	}

	other := spec
	other.Seed = 7
	m3, err := Run(other)
	if err != nil {
		t.Fatal(err)
	}
	j3, err := json.Marshal(m3.Open)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) == string(j3) {
		t.Fatal("different seeds produced the identical report")
	}
}

// TestOpenRunOverload drives arrivals far faster than the machine can
// drain them under a tight in-system cap, and checks the shed accounting
// and percentile ordering the report promises.
func TestOpenRunOverload(t *testing.T) {
	spec := openSpec("poisson:lambda=200000,jobs=40,deadline=100us,cap=2")
	m, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	o := m.Open
	if o == nil {
		t.Fatal("no Open report")
	}
	if o.JobsArrived != 40 {
		t.Fatalf("JobsArrived = %d, want 40", o.JobsArrived)
	}
	if o.JobsShed == 0 {
		t.Fatal("overload run shed no jobs; cap=2 at 200k jobs/s should bind")
	}
	if o.JobsShed+o.JobsCompleted != o.JobsArrived {
		t.Fatalf("shed %d + completed %d != arrived %d",
			o.JobsShed, o.JobsCompleted, o.JobsArrived)
	}
	if o.PeakInSystem > 2 {
		t.Fatalf("PeakInSystem = %d exceeds cap 2", o.PeakInSystem)
	}
	if !(o.P50 <= o.P99 && o.P99 <= o.P999) {
		t.Fatalf("percentiles not monotone: p50=%v p99=%v p999=%v", o.P50, o.P99, o.P999)
	}
	if o.P999 > o.MaxResponse*2 {
		// Quantiles are bucket midpoints, so p999 may exceed the exact max
		// by at most one bucket's width (a factor of 2).
		t.Fatalf("p999 %v implausibly above max %v", o.P999, o.MaxResponse)
	}
	if o.MissRate <= 0 {
		t.Fatal("100us deadline under overload should miss, MissRate = 0")
	}
}

// TestOpenRunBadSpecs ensures malformed arrival specs fail loudly with
// the spec error intact, and that opensys.Parse agrees with Run.
func TestOpenRunBadSpecs(t *testing.T) {
	for _, bad := range []string{"poisson", "poisson:lambda=-1", "burst:rate=9", "poisson:lambda=NaN"} {
		if _, err := opensys.Parse(bad); err == nil {
			t.Errorf("opensys.Parse(%q) passed, want error", bad)
		}
		_, err := Run(openSpec(bad))
		var se *spec.Error
		if err == nil {
			t.Errorf("Run with arrivals %q succeeded, want error", bad)
		} else if !errors.As(err, &se) || se.Component != "arrivals" {
			t.Errorf("Run error for %q lost the arrival-spec cause: %v", bad, err)
		}
	}
	// A well-formed rate this small draws infinite gaps, and the schedule
	// overflows simulated time: the run must fail, not panic the engine.
	if _, err := Run(openSpec("poisson:lambda=1e-300,jobs=2")); err == nil {
		t.Error("arrival schedule overflowing simulated time ran")
	}
}

// TestClosedRunIgnoresOpenPath guards the bit-identical promise from the
// other side: an empty Arrivals field must leave the closed-system spec
// string and JSON encoding unchanged, so sweep cache keys cannot shift.
func TestClosedRunIgnoresOpenPath(t *testing.T) {
	spec := openSpec("")
	if s := spec.String(); strings.Contains(s, "arrivals") || strings.Contains(s, "/poisson") {
		t.Fatalf("closed spec string mentions arrivals: %q", s)
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "arrivals") {
		t.Fatalf("closed spec JSON carries an arrivals key: %s", b)
	}
	m, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.Open != nil {
		t.Fatal("closed run produced an Open report")
	}
}
