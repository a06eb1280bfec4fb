package exp

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"testing"

	"cata/internal/workloads"
)

// TestPolicyChecksums pins the simulated behaviour of every registered
// policy: each policy runs the paper's six workloads at 8, 16 and 24 fast
// cores (scale 0.4, seed 42), and the makespan picoseconds and scheduler
// counters of all 18 runs hash into one FNV-1a digest per policy. The
// digests are bit-exact on every machine, so a mismatch means simulation
// results changed: a speedup that moves one is a bug, and a deliberate
// model change re-pins here in the same commit. The first eight pins are
// those of the July bench capture (BENCH_1.json); AMTHA's was first
// recorded here. A newly registered policy fails until it is pinned.
//
// A second digest per policy pins the bits of every float field of the
// same runs' measurements, plus one open-system run's, so its report's
// floats are covered too. The pins were recorded on amd64; an
// architecture that fuses a multiply-add in the model (see `make
// fma-check`) moves them.
func TestPolicyChecksums(t *testing.T) {
	pins := map[string]string{
		"FIFO":        "2ffe52d11d33ff90",
		"CATS+BL":     "c7c802fb48ab0eed",
		"CATS+SA":     "38bc33dcddc27fdb",
		"CATA":        "d4e27b7d070d6cf5",
		"CATA+RSU":    "550820a9de8cdfe8",
		"TurboMode":   "6cbcd9a341dfc3fa",
		"CATA+RSU-HA": "74ad8a40869b677a",
		"CATA+RSU-3L": "c8ea762454a5748b",
		"AMTHA":       "36c40b7df254a7ed",
	}
	floatPins := map[string]string{
		"FIFO":        "037a64ec78aa64d7",
		"CATS+BL":     "396be1b7402c2350",
		"CATS+SA":     "0ab38c25ee7a9c3d",
		"CATA":        "148056c4bb2769d3",
		"CATA+RSU":    "031bcf8e28e3f7f0",
		"TurboMode":   "beea3bf3c15ea245",
		"CATA+RSU-HA": "bc7c4589152cb898",
		"CATA+RSU-3L": "79de527df8a5cf9b",
		"AMTHA":       "c3ae8dddb667f85f",
	}
	policies := append(AllPolicies(), ExtensionPolicies()...)
	if len(policies) != len(pins) || len(policies) != len(floatPins) {
		t.Errorf("%d registered policies, %d and %d pinned", len(policies), len(pins), len(floatPins))
	}
	for _, p := range policies {
		want, ok := pins[p.String()]
		wantFloats, okFloats := floatPins[p.String()]
		if !ok || !okFloats {
			t.Errorf("policy %v has no checksum pin", p)
			continue
		}
		h, fh := fnv.New64a(), fnv.New64a()
		for _, w := range workloads.Names() {
			for _, fast := range []int{8, 16, 24} {
				m, err := Run(RunSpec{Workload: w, Policy: p, FastCores: fast, Seed: 42, Scale: 0.4})
				if err != nil {
					t.Fatalf("%v/%s/fast=%d: %v", p, w, fast, err)
				}
				fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d\n",
					w, fast, int64(m.Makespan), m.TasksRun, m.CriticalTasks, m.Inversions, m.StaticBinding)
				floatBits(fh, m)
			}
		}
		m, err := Run(RunSpec{
			Workload: "forkjoin:width=4,phases=2,dur=50", Policy: p, FastCores: 8, Seed: 42, Scale: 0.4,
			Arrivals: "poisson:lambda=2000,jobs=40,deadline=250us,cap=4,window=5ms",
		})
		if err != nil {
			t.Fatalf("%v open run: %v", p, err)
		}
		floatBits(fh, m)
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Errorf("checksum of %v = %s, pinned %s", p, got, want)
		}
		if got := fmt.Sprintf("%016x", fh.Sum64()); got != wantFloats {
			t.Errorf("float checksum of %v = %s, pinned %s", p, got, wantFloats)
		}
	}
}

// floatBits writes the bits of every float field of a measurement, its
// open-system report's included, in field order. The spec is the run's
// input and is skipped.
func floatBits(w io.Writer, m Measurement) {
	m.Spec = RunSpec{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			fmt.Fprintf(w, "%016x\n", math.Float64bits(v.Float()))
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(m))
}
