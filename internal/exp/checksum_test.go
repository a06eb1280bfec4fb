package exp

import (
	"fmt"
	"hash/fnv"
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
	policies := append(AllPolicies(), ExtensionPolicies()...)
	if len(policies) != len(pins) {
		t.Errorf("%d registered policies, %d pinned", len(policies), len(pins))
	}
	for _, p := range policies {
		want, ok := pins[p.String()]
		if !ok {
			t.Errorf("policy %v has no checksum pin", p)
			continue
		}
		h := fnv.New64a()
		for _, w := range workloads.Names() {
			for _, fast := range []int{8, 16, 24} {
				m, err := Run(RunSpec{Workload: w, Policy: p, FastCores: fast, Seed: 42, Scale: 0.4})
				if err != nil {
					t.Fatalf("%v/%s/fast=%d: %v", p, w, fast, err)
				}
				fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d\n",
					w, fast, int64(m.Makespan), m.TasksRun, m.CriticalTasks, m.Inversions, m.StaticBinding)
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Errorf("checksum of %v = %s, pinned %s", p, got, want)
		}
	}
}
