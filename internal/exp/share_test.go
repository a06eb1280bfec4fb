package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"cata/internal/batch"
	"cata/internal/program"
	"cata/internal/workloads"
)

// held counts the table's entries that hold a built program, and the
// ones built at all.
func held(t sharedPrograms) (n, built int) {
	for _, e := range t {
		e.mu.Lock()
		if e.built {
			built++
			if e.uses > 0 {
				n++
			}
		}
		e.mu.Unlock()
	}
	return n, built
}

// exportJSON returns a program's JSON trace.
func exportJSON(t *testing.T, p *program.Program) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := program.WriteJSON(&b, p); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestSharedProgramUnchanged: runs that share a sweep's programs leave
// them as they were built, and measure exactly what unshared runs of the
// same specs measure. It sweeps every registered policy, traced and
// untraced, at Parallelism 2; AMTHA premaps the shared program. Under
// -race, a run writing to a program that another run reads fails it.
func TestSharedProgramUnchanged(t *testing.T) {
	var specs []RunSpec
	for _, w := range append(workloads.Names(), "layered:width=6,depth=5") {
		for _, p := range append(AllPolicies(), ExtensionPolicies()...) {
			for _, traced := range []bool{false, true} {
				s := RunSpec{Workload: w, Policy: p, FastCores: 4, Cores: 8, Seed: 7, Scale: 0.05}
				if traced {
					s.Trace = &bytes.Buffer{}
				}
				specs = append(specs, s)
			}
		}
	}
	shared, order := sharePrograms(specs)

	// Hold one more use of every program, so it outlives the sweep, and
	// export it before the sweep runs.
	built := map[*sharedProgram]*program.Program{}
	before := map[*sharedProgram][]byte{}
	for _, s := range specs {
		e := shared.of(s)
		if built[e] != nil {
			continue
		}
		e.uses++
		p, err := e.get(s.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		built[e], before[e] = p, exportJSON(t, p)
	}

	rs, err := sweep(context.Background(), specs, SweepOptions{Parallelism: 2}, shared, order)
	if err != nil {
		t.Fatal(err)
	}
	for e, p := range built {
		if e.prog != p {
			t.Fatalf("%s: the sweep replaced a program it shares", p.Name)
		}
		if !bytes.Equal(exportJSON(t, p), before[e]) {
			t.Errorf("%s: the sweep changed a program it shares", p.Name)
		}
		e.release()
	}
	if n, b := held(shared); n != 0 || b != len(built) {
		t.Errorf("%d of %d programs built, %d held after the sweep", b, len(built), n)
	}

	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("%v: %v", r.Spec, r.Err)
		}
		s := specs[i]
		var trace *bytes.Buffer
		if s.Trace != nil {
			trace = &bytes.Buffer{}
			s.Trace = trace
		}
		m, err := Run(s)
		if err != nil {
			t.Fatalf("%v unshared: %v", s, err)
		}
		got, _ := json.Marshal(r.Measurement)
		want, _ := json.Marshal(m)
		if !bytes.Equal(got, want) {
			t.Errorf("%v: shared run measured\n%s\nunshared\n%s", s, got, want)
		}
		if trace != nil && !bytes.Equal(specs[i].Trace.(*bytes.Buffer).Bytes(), trace.Bytes()) {
			t.Errorf("%v: shared and unshared runs wrote different traces", s)
		}
	}
}

// TestSweepProgramsBoundedByParallelism: a sweep holds at most
// Parallelism+1 shared programs at once, and none when it ends, however
// many programs it names. That includes a resumed sweep whose cache
// serves part of each program's runs. The programs held are counted at
// every completed run. The specs list each workload's seeds innermost,
// as a matrix does, so a sweep that ran them in spec order would hold
// 50 programs at once.
func TestSweepProgramsBoundedByParallelism(t *testing.T) {
	const par = 2
	specsOf := func(policies ...Policy) []RunSpec {
		var specs []RunSpec
		for _, w := range workloads.Names() {
			for _, p := range policies {
				for seed := uint64(1); seed <= 50; seed++ {
					specs = append(specs, RunSpec{
						Workload: w, Policy: p, FastCores: 2, Cores: 4, Seed: seed, Scale: 0.05,
					})
				}
			}
		}
		return specs
	}
	check := func(name string, specs []RunSpec, opts SweepOptions, wantBuilds int) {
		t.Helper()
		shared, order := sharePrograms(specs)
		opts.Parallelism = par
		peak := 0
		opts.Observe = func(batch.Event) {
			n, _ := held(shared)
			peak = max(peak, n)
		}
		rs, err := sweep(context.Background(), specs, opts, shared, order)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range rs {
			if r.Err != nil {
				t.Fatalf("%s: %v: %v", name, r.Spec, r.Err)
			}
		}
		end, builds := held(shared)
		t.Logf("%s: %d runs, %d programs built, at most %d held at once", name, len(specs), builds, peak)
		if builds != wantBuilds || peak > par+1 || end != 0 {
			t.Errorf("%s: %d programs built (want %d), at most %d held at once (want <= %d), %d held at the end",
				name, builds, wantBuilds, peak, par+1, end)
		}
	}
	programs := 50 * len(workloads.Names())
	check("uncached", specsOf(FIFO, CATA), SweepOptions{}, programs)
	cache := filepath.Join(t.TempDir(), "cache.jsonl")
	check("filling the cache", specsOf(FIFO), SweepOptions{CachePath: cache}, programs)
	check("resumed", specsOf(FIFO, CATA), SweepOptions{CachePath: cache, Resume: true}, programs)
	check("all cached", specsOf(FIFO, CATA), SweepOptions{CachePath: cache, Resume: true}, 0)
}
