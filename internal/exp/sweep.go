package exp

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"

	"cata/internal/batch"
	"cata/internal/policies"
	"cata/internal/program"
	"cata/internal/workloads"
)

// SweepOptions configure a batch sweep.
type SweepOptions struct {
	// Parallelism bounds concurrent simulations (default GOMAXPROCS).
	Parallelism int
	// CachePath, when non-empty, persists completed measurements to a
	// JSONL file keyed by the spec's content hash. The file is opened
	// (and fully parsed) per Sweep call; services running many sweeps
	// should hold one open Cache instead.
	CachePath string
	// Cache, when non-nil, is an already-open result cache shared
	// across sweeps. It takes precedence over CachePath and is not
	// closed by Sweep, so concurrent sweeps see each other's completed
	// results without re-reading the backing file.
	Cache *batch.Cache
	// Resume skips specs whose results are already in the cache.
	Resume bool
	// Progress, when non-nil, receives one status line per completed
	// run (done/total, ETA, live best-EDP).
	Progress io.Writer
	// Observe, when non-nil, receives one structured batch.Event per
	// completed run plus a cache-resume summary — the subscribable
	// progress form behind catad's SSE job streams. Calls arrive from a
	// single goroutine in completion order.
	Observe func(batch.Event)
}

// RunResult is the outcome of one spec in a sweep: a measurement or the
// spec's own error. Failing specs never abort the sweep.
type RunResult struct {
	Spec        RunSpec
	Measurement Measurement
	Err         error
	// Cached reports that the measurement was served from the result
	// cache without re-simulating.
	Cached bool
}

// Sweep executes specs through the batch engine and returns one result
// per spec, in spec order — identical to running them sequentially.
// Canceling ctx stops dispatch, finishes in-flight runs (persisting them
// to the cache), and returns the partial results with ctx.Err(); a later
// Sweep over the same specs with Resume set completes the remainder.
//
// Closed runs of one registry workload, seed and scale share one build
// of its program, read-only (see sharedPrograms).
func Sweep(ctx context.Context, specs []RunSpec, opts SweepOptions) ([]RunResult, error) {
	shared, order := sharePrograms(specs)
	return sweep(ctx, specs, opts, shared, order)
}

// sweep is Sweep with the specs run in the given order, a permutation
// of their indices, and closed runs' programs taken from shared.
func sweep(ctx context.Context, specs []RunSpec, opts SweepOptions, shared sharedPrograms, order []int) ([]RunResult, error) {
	cache := opts.Cache
	if cache == nil && opts.CachePath != "" {
		c, err := batch.Open(opts.CachePath)
		if err != nil {
			return nil, err
		}
		cache = c
		defer c.Close()
	}

	// The batch runs the specs grouped by program, so a program is held
	// only while its group is in flight or next in line.
	grouped := make([]RunSpec, len(specs))
	for j, i := range order {
		grouped[j] = specs[i]
	}

	// Note is called from a single goroutine — once per cache-served
	// result, then in completion order — so the best-EDP tracking
	// needs no lock and covers resumed results too. A cache-served
	// result takes no program: its use is released up front.
	bestEDP := math.Inf(1)
	bestSpec := ""
	note := func(r batch.Result[RunSpec, Measurement]) string {
		if r.Cached {
			shared.of(r.Spec).release()
		}
		if r.Err == nil && r.Value.EDP > 0 && r.Value.EDP < bestEDP {
			bestEDP = r.Value.EDP
			bestSpec = r.Spec.String()
		}
		if bestSpec == "" {
			return ""
		}
		return fmt.Sprintf("best EDP %.4g Js (%s)", bestEDP, bestSpec)
	}
	observe := opts.Observe
	if observe != nil {
		observe = func(e batch.Event) {
			if e.Index >= 0 {
				e.Index = order[e.Index]
			}
			opts.Observe(e)
		}
	}

	rs, err := batch.Run(ctx, grouped,
		func(_ context.Context, s RunSpec) (Measurement, error) {
			sp := shared.of(s)
			defer sp.release()
			return run(s, sp)
		},
		batch.Options[RunSpec, Measurement]{
			Parallelism: opts.Parallelism,
			Cache:       cache,
			Key:         cacheKey,
			Resume:      opts.Resume,
			Progress:    opts.Progress,
			Observe:     observe,
			Note:        note,
		})
	out := make([]RunResult, len(rs))
	for j, r := range rs {
		out[order[j]] = RunResult{Spec: r.Spec, Measurement: r.Value, Err: r.Err, Cached: r.Cached}
	}
	return out, err
}

// sharedPrograms is a sweep's table of shared workload programs. Every
// closed run of a registry workload (no in-memory Program, no arrivals)
// takes its program from the entry of its (workload spec, seed, scale),
// after defaults. The first run to need an entry builds it; the others
// wait for that build and share it. No run writes to a program: the
// runtime copies each task spec into its own task, and AMTHA's premap
// only reads. Each entry counts the runs that have yet to release it
// and drops its program at zero, and the sweep dispatches each entry's
// runs together, so the programs held at once are bounded by the
// parallelism plus one, whatever the sweep's size, cache hits included.
type sharedPrograms map[programKey]*sharedProgram

// programKey names one shareable program.
type programKey struct {
	workload string
	seed     uint64
	scale    float64
}

// sharedProgram is one entry: a program built once for the runs that
// name it.
type sharedProgram struct {
	group int // index of the entry's runs among the dispatch groups

	mu    sync.Mutex
	uses  int // runs that have yet to release the entry
	built bool
	prog  *program.Program
	err   error
}

// shareKey returns the program key of a spec, or false for specs that
// build no registry program.
func shareKey(s RunSpec) (programKey, bool) {
	if s.Program != nil || s.Arrivals != "" {
		return programKey{}, false
	}
	s = s.withDefaults()
	return programKey{s.Workload, s.Seed, s.Scale}, true
}

// sharePrograms builds the table for specs and the order to run them
// in: the specs grouped by program, groups in order of first
// appearance, specs in their order within a group.
func sharePrograms(specs []RunSpec) (sharedPrograms, []int) {
	t := sharedPrograms{}
	var groups [][]int
	for i, s := range specs {
		k, ok := shareKey(s)
		if !ok {
			groups = append(groups, []int{i})
			continue
		}
		e := t[k]
		if e == nil {
			e = &sharedProgram{group: len(groups)}
			t[k] = e
			groups = append(groups, nil)
		}
		e.uses++
		groups[e.group] = append(groups[e.group], i)
	}
	order := make([]int, 0, len(specs))
	for _, g := range groups {
		order = append(order, g...)
	}
	return t, order
}

// of returns the entry of a spec's program, nil for specs without one.
func (t sharedPrograms) of(s RunSpec) *sharedProgram {
	k, ok := shareKey(s)
	if !ok {
		return nil
	}
	return t[k]
}

// get returns the entry's program for spec, which has defaults
// applied, building it on first use.
func (e *sharedProgram) get(spec RunSpec) (*program.Program, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.built {
		e.prog, e.err = workloads.Build(spec.Workload, spec.Seed, spec.Scale)
		e.built = true
	}
	return e.prog, e.err
}

// release ends one run's use of the entry; the last drops the program.
// A nil entry (a spec without one) has nothing to release.
func (e *sharedProgram) release() {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.uses--
	if e.uses == 0 {
		e.prog, e.err = nil, nil
	}
}

// cacheKey hashes the defaulted spec so that e.g. Cores 0 and Cores 32
// share a cache entry. The workload spec is replaced by its cache token
// — the canonical parameter spelling plus, for file-backed workloads,
// the file's content hash — so generated-workload parameters key the
// cache correctly and editing a trace file never reuses a stale result.
// Specs carrying an in-memory program or output writers are not
// content-addressable and are never cached, as are specs whose workload
// fails to resolve (those runs fail anyway).
func cacheKey(s RunSpec) (string, bool) {
	if s.Program != nil || s.Trace != nil || s.Timeline != nil {
		return "", false
	}
	s = s.withDefaults()
	tok, err := workloads.CacheToken(s.Workload)
	if err != nil {
		return "", false
	}
	s.Workload = tok
	// The policy spec canonicalizes the same way: case and parameter
	// order fold away, so two spellings of one configuration share a
	// cache entry. For the built-in bare specs the canonical form is the
	// paper label — exactly what keys always hashed — so existing cached
	// results stay addressable.
	canon, err := policies.Canonicalize(string(s.Policy))
	if err != nil {
		return "", false
	}
	s.Policy = Policy(canon)
	k, err := batch.Key(s)
	if err != nil {
		return "", false
	}
	return k, true
}
