package spec_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"cata/internal/spec"
)

// specErr asserts err is a *spec.Error and returns it.
func specErr(t *testing.T, err error) *spec.Error {
	t.Helper()
	var se *spec.Error
	if !errors.As(err, &se) {
		t.Fatalf("error %v (%T) is not a *spec.Error", err, err)
	}
	return se
}

func TestParse(t *testing.T) {
	for _, tc := range []struct{ in, canonical string }{
		{"dedup", "dedup"},
		{"  dedup ", "dedup"},
		{"layered:width=16,depth=32,seed=7", "layered:depth=32,seed=7,width=16"},
		{"layered: depth=32 , width=16", "layered:depth=32,width=16"},
		{"X: b=2 , a=1", "X:a=1,b=2"},
		{"dot:file=C:/g.dot", "dot:file=C:/g.dot"},
		{"x:a=b=c", "x:a=b=c"},
	} {
		sp, err := spec.Parse("workload", tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got := sp.Canonical(); got != tc.canonical {
			t.Errorf("Parse(%q).Canonical() = %q, want %q", tc.in, got, tc.canonical)
		}
	}

	sp, err := spec.Parse("policy", "AMTHA:tiebreak=spread")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sp.Params.Lookup("tiebreak"); sp.Name != "AMTHA" || !ok || v != "spread" {
		t.Fatalf("parsed %+v", sp)
	}
	if _, ok := sp.Params.Lookup("absent"); ok {
		t.Fatal("Lookup found an absent key")
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct {
		in        string
		name, key string // expected Error.Name and Error.Key
	}{
		{"", "", ""},
		{":a=1", "", ""},
		{"FIFO:", "FIFO", ""},
		{"FIFO: ", "FIFO", ""},
		{"FIFO:novalue", "FIFO", ""},
		{"FIFO:=1", "FIFO", ""},
		{"FIFO:a=1,,b=2", "FIFO", ""},
		{"FIFO:a=", "FIFO", "a"},
		{"FIFO:a=1,b= ", "FIFO", "b"},
		{"X:a=1,a=2", "X", "a"},
		{"X:b=1,a=2,b=3", "X", "b"},
	} {
		_, err := spec.Parse("policy", tc.in)
		se := specErr(t, err)
		if se.Component != "policy" || se.Spec != tc.in || se.Name != tc.name || se.Key != tc.key {
			t.Errorf("Parse(%q) error = %+v, want name %q key %q", tc.in, se, tc.name, tc.key)
		}
	}
}

// docs exercises every kind and bound shape.
var docs = []spec.ParamDoc{
	{Key: "width", Kind: spec.Int, Min: 1},
	{Key: "frac", Kind: spec.Float, Min: 0, Max: 1},
	{Key: "theta", Kind: spec.Float, Min: 0, Max: 1, MinExclusive: true},
	{Key: "rate", Kind: spec.Float, Min: 0, MinExclusive: true},
	{Key: "mode", Kind: spec.Enum, Choices: []string{"a", "b"}},
	{Key: "seed", Kind: spec.Uint},
	{Key: "gap", Kind: spec.Duration, Min: 0, MinExclusive: true},
	{Key: "slo", Kind: spec.Duration},
	{Key: "name", Kind: spec.String},
}

func TestCheck(t *testing.T) {
	required := []spec.ParamDoc{{Key: "file", Kind: spec.String, Required: true}}
	for _, tc := range []struct {
		in  string
		key string // offending key; "" means the spec is accepted
	}{
		{"x:file=f", ""},
		{"x:file=f,width=1,frac=0,theta=1,rate=1e-9,mode=b,seed=18446744073709551615,gap=1ns,slo=0,name=any", ""},
		{"x:file=f,frac=1,slo=5ms", ""},
		{"x", "file"},
		{"x:width=3", "file"},
		{"x:file=f,bogus=1", "bogus"},
		{"x:file=f,width=0", "width"},
		{"x:file=f,width=1.5", "width"},
		{"x:file=f,width=10abc", "width"},
		{"x:file=f,frac=1.5", "frac"},
		{"x:file=f,frac=-0.1", "frac"},
		{"x:file=f,frac=NaN", "frac"},
		{"x:file=f,frac=nan", "frac"},
		{"x:file=f,theta=0", "theta"},
		{"x:file=f,theta=NaN", "theta"},
		{"x:file=f,rate=0", "rate"},
		{"x:file=f,rate=Inf", "rate"},
		{"x:file=f,rate=+Inf", "rate"},
		{"x:file=f,rate=1e400", "rate"},
		{"x:file=f,rate=3e3x", "rate"},
		{"x:file=f,mode=c", "mode"},
		{"x:file=f,mode=A", "mode"},
		{"x:file=f,seed=-1", "seed"},
		{"x:file=f,seed=18446744073709551616", "seed"},
		{"x:file=f,gap=0s", "gap"},
		{"x:file=f,gap=-1ms", "gap"},
		{"x:file=f,gap=5", "gap"},
		{"x:file=f,slo=-5ms", "slo"},
		{"x:file=f,slo=nope", "slo"},
	} {
		sp, err := spec.Parse("workload", tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		err = sp.Check(required, docs)
		if tc.key == "" {
			if err != nil {
				t.Errorf("Check(%q): %v", tc.in, err)
			}
			continue
		}
		se := specErr(t, err)
		if se.Component != "workload" || se.Name != "x" || se.Key != tc.key {
			t.Errorf("Check(%q) error = %+v, want key %q", tc.in, se, tc.key)
		}
	}
}

func TestErrorMessages(t *testing.T) {
	for _, tc := range []struct {
		err  *spec.Error
		want string
	}{
		{&spec.Error{Component: "policy", Reason: "empty name"}, `policy spec "": empty name`},
		{&spec.Error{Component: "policy", Spec: "nope", Name: "nope", Reason: "unknown policy"}, "policy nope: unknown policy"},
		{&spec.Error{Component: "arrivals", Spec: "poisson", Name: "poisson", Key: "lambda", Reason: "missing required parameter"},
			"arrivals poisson: parameter lambda: missing required parameter"},
	} {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("Error() = %q, want %q", got, tc.want)
		}
	}
	sp, _ := spec.Parse("workload", "x:frac=2")
	if got, want := sp.Check(docs).Error(), "workload x: parameter frac: value 2 must be <= 1"; got != want {
		t.Errorf("bounds error = %q, want %q", got, want)
	}
	sp, _ = spec.Parse("workload", "x:nope=2")
	if got, want := sp.Check(nil).Error(), "workload x: parameter nope: unknown parameter (have none)"; got != want {
		t.Errorf("unknown-key error = %q, want %q", got, want)
	}
}

func TestParamsAccessors(t *testing.T) {
	sp, err := spec.Parse("workload", "x:width=7,frac=0.25,seed=18446744073709551615,gap=500us,name=n")
	if err != nil {
		t.Fatal(err)
	}
	p := sp.Params
	if got := p.Int("width", 1); got != 7 {
		t.Errorf("Int = %d", got)
	}
	if got := p.Float("frac", 1); got != 0.25 {
		t.Errorf("Float = %g", got)
	}
	if got := p.Uint64("seed", 1); got != math.MaxUint64 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := p.Duration("gap", 0); got != 500*time.Microsecond {
		t.Errorf("Duration = %v", got)
	}
	if got := p.Str("name", "def"); got != "n" {
		t.Errorf("Str = %q", got)
	}
	// Absent keys fall back to the defaults.
	if p.Int("a", 3) != 3 || p.Float("a", 2.5) != 2.5 || p.Uint64("a", 9) != 9 ||
		p.Duration("a", time.Second) != time.Second || p.Str("a", "d") != "d" {
		t.Error("absent keys did not return their defaults")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[spec.Kind]string{
		spec.String: "string", spec.Int: "int", spec.Float: "float", spec.Enum: "enum",
		spec.Uint: "uint", spec.Duration: "duration", spec.Kind(99): "Kind(99)",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestCheckDocs(t *testing.T) {
	if err := spec.CheckDocs(docs, []spec.ParamDoc{{Key: "extra"}}); err != nil {
		t.Fatalf("well-formed docs rejected: %v", err)
	}
	for name, bad := range map[string][][]spec.ParamDoc{
		"empty key":        {{{Kind: spec.Int}}},
		"duplicate key":    {{{Key: "a"}, {Key: "a"}}},
		"duplicate across": {{{Key: "seed"}}, docs},
		"enum no choices":  {{{Key: "m", Kind: spec.Enum}}},
	} {
		if spec.CheckDocs(bad...) == nil {
			t.Errorf("CheckDocs accepted %s", name)
		}
	}
}

// forkjoinDocs mirrors a synthetic generator's declarations.
var forkjoinDocs = []spec.ParamDoc{
	{Key: "width", Kind: spec.Int, Min: 1},
	{Key: "phases", Kind: spec.Int, Min: 1},
	{Key: "dur", Kind: spec.Float, Min: 1, Max: 1e9},
}

// reservedDocs mirrors the reserved parameters every workload accepts.
var reservedDocs = []spec.ParamDoc{{Key: "seed", Kind: spec.Uint}}

// TestSpecHandlingAllocs pins the cost of the per-job spec path: parsing
// a parameterized spec allocates only its parameter list, and a bare
// spec allocates nothing; checking allocates nothing either way.
func TestSpecHandlingAllocs(t *testing.T) {
	for in, want := range map[string]float64{
		"forkjoin":                           0,
		"forkjoin:width=16,phases=2,dur=200": 1,
	} {
		got := testing.AllocsPerRun(100, func() {
			sp, err := spec.Parse("workload", in)
			if err != nil {
				t.Fatal(err)
			}
			if err := sp.Check(reservedDocs, forkjoinDocs); err != nil {
				t.Fatal(err)
			}
		})
		if got != want {
			t.Errorf("Parse+Check(%q) = %v allocs, want %v", in, got, want)
		}
	}
}

// BenchmarkParseCheck measures the per-job spec path of an open-system
// run: parse and validate one parameterized workload spec, then read
// its values back.
func BenchmarkParseCheck(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, err := spec.Parse("workload", "forkjoin:width=16,phases=2,dur=200")
		if err != nil {
			b.Fatal(err)
		}
		if err := sp.Check(reservedDocs, forkjoinDocs); err != nil {
			b.Fatal(err)
		}
		if sp.Params.Int("width", 0) != 16 || sp.Params.Float("dur", 0) != 200 {
			b.Fatal("read back the wrong values")
		}
	}
}
