package workloads

import (
	"fmt"
	"sort"
	"strings"

	"cata/internal/program"
	"cata/internal/spec"
)

// Entry is one registered workload: a named constructor with typed,
// documented parameters. The registry replaces the hard-coded workload
// lists that used to live in each CLI: anything registered here is
// runnable from both CLIs, the public API, and the evaluation matrix.
type Entry struct {
	// Name is the spec name, lowercase (e.g. "dedup", "layered").
	Name string
	// Description summarizes the workload's structure in one line.
	Description string
	// Params declares the accepted parameters with their kinds and
	// bounds. Specs naming any other key (except the reserved
	// seed/scale), or a value outside its declaration, are rejected
	// before Build runs.
	Params []spec.ParamDoc
	// Build constructs the program. seed and scale arrive with the
	// reserved spec parameters already applied.
	Build func(p spec.Params, seed uint64, scale float64) (*program.Program, error)
	// FileBacked marks workloads whose program is loaded from an
	// external file: they cannot be built without parameters, and their
	// cache identity must include the file's content (see CacheToken).
	FileBacked bool
	// CacheToken, when non-nil, returns extra material mixed into the
	// batch cache key beyond the canonical spec string — file-backed
	// entries return a content hash so a changed file never reuses a
	// stale cached result. A nil CacheToken means the canonical spec
	// fully identifies the generated program.
	CacheToken func(p spec.Params) (string, error)
}

// reservedParams apply to every workload and are handled by Build before
// an entry's constructor runs.
var reservedParams = []spec.ParamDoc{
	{Key: "seed", Kind: spec.Uint, Default: "run seed", Help: "override the run's workload seed"},
	{Key: "scale", Kind: spec.Float, Default: "run scale", Help: "override the run's scale in (0,1]",
		Min: 0, Max: 1, MinExclusive: true},
}

var registry = map[string]Entry{}

// Register adds an entry to the workload registry. It panics on duplicate
// or empty names, malformed parameter declarations, and file-backed
// entries without a CacheToken — programmer errors in an init-time,
// static call graph.
func Register(e Entry) {
	if e.Name == "" || e.Build == nil {
		panic("workloads: Register with empty name or nil Build")
	}
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate registration of %q", e.Name))
	}
	if e.FileBacked && e.CacheToken == nil {
		panic(fmt.Sprintf("workloads: file-backed workload %q must provide a CacheToken", e.Name))
	}
	if err := spec.CheckDocs(reservedParams, e.Params); err != nil {
		panic(fmt.Sprintf("workloads: %s: %v", e.Name, err))
	}
	registry[e.Name] = e
}

// List returns every registered entry: the six paper benchmarks first (in
// the paper's presentation order), then everything else alphabetically.
func List() []Entry {
	paper := make(map[string]int, 6)
	for i, w := range All() {
		paper[w.Name()] = i
	}
	es := make([]Entry, 0, len(registry))
	for _, e := range registry {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		pi, iPaper := paper[es[i].Name]
		pj, jPaper := paper[es[j].Name]
		switch {
		case iPaper != jPaper:
			return iPaper
		case iPaper:
			return pi < pj
		default:
			return es[i].Name < es[j].Name
		}
	})
	return es
}

// resolve parses a workload spec and validates it against its registry
// entry: the name (case-sensitive), then every parameter's key, kind
// and bounds.
func resolve(s string) (spec.Spec, Entry, error) {
	sp, err := spec.Parse("workload", s)
	if err != nil {
		return spec.Spec{}, Entry{}, err
	}
	e, ok := registry[sp.Name]
	if !ok {
		names := make([]string, 0, len(registry))
		for n := range registry {
			names = append(names, n)
		}
		sort.Strings(names)
		return spec.Spec{}, Entry{}, sp.Errorf("", "unknown workload (have %s)", strings.Join(names, ", "))
	}
	if err := sp.Check(reservedParams, e.Params); err != nil {
		return spec.Spec{}, Entry{}, err
	}
	return sp, e, nil
}

// Validate checks a workload spec against the registry without building
// anything and returns the entry it names. The error is a *spec.Error
// naming the offending parameter when one is at fault.
func Validate(s string) (Entry, error) {
	_, e, err := resolve(s)
	return e, err
}

// Build resolves a workload spec string against the registry and
// generates its program: `dedup`, `layered:seed=7,width=16,depth=32`,
// `trace:file=capture.json`, ... The seed and scale arguments are the
// run's values; the reserved spec parameters override them. The returned
// program is validated.
func Build(s string, seed uint64, scale float64) (*program.Program, error) {
	sp, e, err := resolve(s)
	if err != nil {
		return nil, err
	}
	prog, err := e.Build(sp.Params, sp.Params.Uint64("seed", seed), sp.Params.Float("scale", scale))
	if err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", e.Name, err)
	}
	return prog, nil
}

// CacheToken returns the content-addressed identity of a workload spec
// for batch cache keys: the canonical spec string, extended with the
// entry's extra token (e.g. a file content hash) when it has one. It
// fails for specs Validate rejects and for unreadable files, in which
// case the run is not cacheable (and will fail anyway).
func CacheToken(s string) (string, error) {
	sp, e, err := resolve(s)
	if err != nil {
		return "", err
	}
	tok := sp.Canonical()
	if e.CacheToken != nil {
		extra, err := e.CacheToken(sp.Params)
		if err != nil {
			return "", err
		}
		tok += "#" + extra
	}
	return tok, nil
}

// init registers the six paper benchmarks. The synthetic shapes and the
// trace importers register themselves in their own files.
func init() {
	for _, w := range All() {
		w := w
		Register(Entry{
			Name:        w.Name(),
			Description: w.Description(),
			Build: func(_ spec.Params, seed uint64, scale float64) (*program.Program, error) {
				return w.Build(seed, scale), nil
			},
		})
	}
}
