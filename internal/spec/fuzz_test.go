package spec_test

import (
	"testing"

	"cata/internal/opensys"
	"cata/internal/policies"
	"cata/internal/spec"
	"cata/internal/workloads"
)

// FuzzParse holds the grammar to three properties on arbitrary input:
// Parse never panics; the canonical form of anything Parse accepts
// parses back to the same canonical form; and a spec any of the three
// registries accepts is still accepted — with the same meaning — after
// canonicalization, so the cache key never depends on how a spec was
// spelled.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"dedup", " layered: depth=8 , width=6", "chain:sidedur=NaN,side=2",
		"forkjoin:width=16,phases=2,dur=200,seed=18446744073709551615,scale=0.5",
		"dot:file=C:/g.dot,dur=100", "trace", "x:a=b=c", "x:a:b=1",
		"AMTHA:tiebreak=spread", " cats+bl : theta = 0.5 ", "FIFO:hint=1",
		"poisson:lambda=2000,jobs=40,deadline=5ms,cap=8,window=100ms",
		"fixed: interval=500us , jobs=3", "poisson:jobs=10abc",
		"", ":", "a:", "a:,", "a:=", "a:k=", "a:k=1,k=2", "a:k=1,,",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := spec.Parse("workload", s)
		if err != nil {
			return
		}
		canon := sp.Canonical()
		again, err := spec.Parse("workload", canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, s, err)
		}
		if got := again.Canonical(); got != canon {
			t.Fatalf("canonical form of %q is not a fixed point: %q -> %q", s, canon, got)
		}

		if _, err := workloads.Validate(s); err == nil {
			if _, err := workloads.Validate(canon); err != nil {
				t.Fatalf("workload spec %q accepted, its canonical form %q rejected: %v", s, canon, err)
			}
		}
		if want, err := policies.Canonicalize(s); err == nil {
			got, err := policies.Canonicalize(canon)
			if err != nil || got != want {
				t.Fatalf("policy spec %q canonicalizes to %q, its canonical form %q to %q (%v)", s, want, canon, got, err)
			}
		}
		if want, err := opensys.Parse(s); err == nil {
			got, err := opensys.Parse(canon)
			if err != nil || got != want {
				t.Fatalf("arrival spec %q parses to %+v, its canonical form %q to %+v (%v)", s, want, canon, got, err)
			}
		}
	})
}
