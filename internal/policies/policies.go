// Package policies is the open policy registry: every scheduling /
// acceleration configuration the simulator can run is a named Entry
// registered here, resolvable from a spec string of the form
//
//	name
//	name:key=val,key=val,...
//
// in the grammar every registry shares (internal/spec). The name is
// matched case-insensitively; parameters are typed and validated against
// the entry's spec.ParamDoc list before anything is built, so a bad spec
// is rejected at parse (or catad admission) time with the offending key
// named. Canonicalize folds case and parameter order into one canonical
// string, which is what internal/exp stores in RunSpec.Policy and hashes
// into the batch cache key — two spellings of the same configuration
// never fork the cache.
//
// The eight built-in configurations (builtin.go) and AMTHA (amtha.go)
// register themselves at init; anything else can join them by calling
// Register from its own init. See ARCHITECTURE.md "Writing a policy".
package policies

import (
	"fmt"
	"sort"
	"strings"

	"cata/internal/machine"
	"cata/internal/probe"
	"cata/internal/rts"
	"cata/internal/sim"
	"cata/internal/spec"
	"cata/internal/stats"
)

// Module is a reconfiguration mechanism a policy instantiates for one
// run: the RSM and the cpufreq stack under it, an RSU, TurboMode's
// controller. The experiment harness attaches the run's flight recorder
// (when one was requested) to every registered module before the run,
// and has each report its own statistics after it.
type Module interface {
	// SetRecorder attaches the run's flight recorder.
	SetRecorder(probe.Recorder)
	// Harvest returns st with the module's statistics for a run that
	// lasted makespan written in. st travels by value so the caller's
	// measurement is not moved to the heap by the interface call.
	Harvest(st stats.Reconfig, makespan sim.Time) stats.Reconfig
}

// Env is the per-run wiring surface handed to a policy's Build hook: the
// engine and machine already exist, and Cfg is the runtime configuration
// whose scheduler / estimator / reconfiguration slots the policy fills
// in. Cfg.Program is the closed-system program (nil for open-system
// runs), available to policies that precompute from the task graph.
//
// A policy appends every module it instantiates to Modules, so the
// experiment harness can trace it and collect its statistics.
type Env struct {
	// Eng is the simulation engine.
	Eng *sim.Engine
	// Mach is the machine under the configured core count.
	Mach *machine.Machine
	// Cfg is the runtime configuration to complete.
	Cfg *rts.Config
	// FastCores is the run's fast-core budget.
	FastCores int
	// Seed is the run's seed, for policies that need randomness.
	Seed uint64
	// Modules are the run's reconfiguration modules.
	Modules []Module
}

// Entry is one registered policy: a named configuration with typed,
// documented parameters. The registry replaces the closed policy enum
// that used to live in internal/exp: anything registered here is
// parseable, sweepable, cacheable and servable through catad by its
// spec string alone.
type Entry struct {
	// Name is the canonical spec name (the paper's label for the
	// built-ins, e.g. "CATA+RSU"). Lookup is case-insensitive.
	Name string
	// Extension marks beyond-the-paper configurations.
	Extension bool
	// Summary is a one-line description.
	Summary string
	// Params documents and types the accepted parameters. Specs naming
	// any other key are rejected before Build runs.
	Params []spec.ParamDoc
	// Machine, when non-nil, adjusts the machine configuration before
	// the machine is constructed (e.g. a different power model).
	Machine func(p spec.Params, cfg *machine.Config) error
	// Build completes the runtime configuration in env.
	Build func(p spec.Params, env *Env) error
}

// registry is keyed by the lowercased entry name.
var registry = map[string]Entry{}

// builtinOrder pins the listing order of the paper's configurations;
// everything else lists after them alphabetically.
var builtinOrder = map[string]int{}

// Register adds an entry to the policy registry. It panics on duplicate
// or empty names, nil Build hooks, and malformed parameter docs —
// programmer errors in an init-time, static call graph.
func Register(e Entry) {
	if e.Name == "" || e.Build == nil {
		panic("policies: Register with empty name or nil Build")
	}
	key := strings.ToLower(e.Name)
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("policies: duplicate registration of %q", e.Name))
	}
	if err := spec.CheckDocs(e.Params); err != nil {
		panic(fmt.Sprintf("policies: %s: %v", e.Name, err))
	}
	registry[key] = e
}

// List returns every registered entry: the eight built-in
// configurations first (paper order, then the built-in extensions),
// then everything else alphabetically by name.
func List() []Entry {
	es := make([]Entry, 0, len(registry))
	for _, e := range registry {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		oi, iBuiltin := builtinOrder[es[i].Name]
		oj, jBuiltin := builtinOrder[es[j].Name]
		switch {
		case iBuiltin != jBuiltin:
			return iBuiltin
		case iBuiltin:
			return oi < oj
		default:
			return es[i].Name < es[j].Name
		}
	})
	return es
}

// Names returns the canonical names of every registered policy, in List
// order.
func Names() []string {
	var ns []string
	for _, e := range List() {
		ns = append(ns, e.Name)
	}
	return ns
}

// Lookup returns the registry entry for a policy name, matched
// case-insensitively.
func Lookup(name string) (Entry, error) {
	e, ok := registry[strings.ToLower(name)]
	if !ok {
		return Entry{}, &spec.Error{
			Component: "policy", Spec: name, Name: name,
			Reason: fmt.Sprintf("unknown policy (have %s)", strings.Join(Names(), ", ")),
		}
	}
	return e, nil
}

// Canonicalize resolves a spec string against the registry and returns
// its canonical form: the entry's canonical name followed by the
// validated parameters in sorted key order. This is the string RunSpec
// carries and the batch cache key hashes — "cata+rsu" and "CATA+RSU"
// canonicalize identically, as do two orderings of the same parameters.
func Canonicalize(s string) (string, error) {
	sp, _, err := resolve(s)
	if err != nil {
		return "", err
	}
	return sp.Canonical(), nil
}

// Resolve parses and validates a spec string and returns its entry plus
// the typed parameters its hooks consume.
func Resolve(s string) (Entry, spec.Params, error) {
	sp, e, err := resolve(s)
	return e, sp.Params, err
}

// resolve parses a policy spec and validates it against its entry,
// adopting the entry's name casing for the canonical form and errors.
func resolve(s string) (spec.Spec, Entry, error) {
	sp, err := spec.Parse("policy", s)
	if err != nil {
		return spec.Spec{}, Entry{}, err
	}
	e, err := Lookup(sp.Name)
	if err != nil {
		return spec.Spec{}, Entry{}, err
	}
	sp.Name = e.Name
	if err := sp.Check(e.Params); err != nil {
		return spec.Spec{}, Entry{}, err
	}
	return sp, e, nil
}
