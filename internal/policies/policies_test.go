package policies

import (
	"errors"
	"strings"
	"testing"

	"cata/internal/spec"
)

// specErr asserts err is a policy *spec.Error and returns it.
func specErr(t *testing.T, err error) *spec.Error {
	t.Helper()
	var se *spec.Error
	if !errors.As(err, &se) || se.Component != "policy" {
		t.Fatalf("error %v (%T) is not a policy *spec.Error", err, err)
	}
	return se
}

// TestParseSpec: policy specs go through the shared grammar — parameters
// reach the hooks, a bare name has none, and spaces are trimmed.
func TestParseSpec(t *testing.T) {
	e, p, err := Resolve(" amtha : tiebreak = spread ")
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "AMTHA" || p.Str("tiebreak", "") != "spread" {
		t.Fatalf("resolved %s with tiebreak %q", e.Name, p.Str("tiebreak", ""))
	}
	e, p, err = Resolve("FIFO")
	if _, ok := p.Lookup("tiebreak"); err != nil || e.Name != "FIFO" || ok {
		t.Fatalf("bare spec: %s, %v", e.Name, err)
	}
}

func TestParseSpecHostile(t *testing.T) {
	for _, tc := range []struct {
		spec string
		key  string // expected Error.Key, "" when the whole spec is bad
	}{
		{"", ""},
		{":a=1", ""},
		{"FIFO:", ""},
		{"FIFO:novalue", ""},
		{"FIFO:=1", ""},
		{"AMTHA:tiebreak=", "tiebreak"},
		{"AMTHA:tiebreak=index,tiebreak=spread", "tiebreak"},
	} {
		_, err := Canonicalize(tc.spec)
		se := specErr(t, err)
		if se.Key != tc.key {
			t.Errorf("Canonicalize(%q): Key = %q, want %q (err %v)", tc.spec, se.Key, tc.key, err)
		}
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	for _, name := range []string{"amtha", "AMTHA", "Amtha", "cata+rsu-3l"} {
		e, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if strings.EqualFold(e.Name, name) == false {
			t.Fatalf("Lookup(%q) = %q", name, e.Name)
		}
	}
	_, err := Lookup("no-such-policy")
	se := specErr(t, err)
	if se.Name != "no-such-policy" || !strings.Contains(se.Reason, "unknown policy") {
		t.Fatalf("unknown-policy error = %+v", se)
	}
	// The error names the valid policies, so a typo is self-correcting.
	if !strings.Contains(se.Reason, "AMTHA") || !strings.Contains(se.Reason, "FIFO") {
		t.Fatalf("unknown-policy error does not list the registry: %v", se)
	}
}

func TestCanonicalize(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"FIFO", "FIFO"},
		{"fifo", "FIFO"},
		{"cata+rsu", "CATA+RSU"},
		{"turbomode", "TurboMode"},
		{"AMTHA:tiebreak=spread", "AMTHA:tiebreak=spread"},
		{"amtha : tiebreak=accum", "AMTHA:tiebreak=accum"},
		{"cats+bl:theta=0.5", "CATS+BL:theta=0.5"},
	} {
		got, err := Canonicalize(tc.in)
		if err != nil {
			t.Errorf("Canonicalize(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Canonicalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestCanonicalizeHostile(t *testing.T) {
	for _, tc := range []struct {
		spec        string
		policy, key string
	}{
		// Unknown policy name.
		{"NoSuchPolicy", "NoSuchPolicy", ""},
		// Unknown parameter key on a policy with params.
		{"AMTHA:bogus=1", "AMTHA", "bogus"},
		// Unknown parameter key on a policy without params.
		{"FIFO:hint=1", "FIFO", "hint"},
		// Enum value outside the choice set.
		{"AMTHA:tiebreak=random", "AMTHA", "tiebreak"},
		// Float that is not a number.
		{"CATS+BL:theta=fast", "CATS+BL", "theta"},
		// Float bounds: theta is in (0,1].
		{"CATS+BL:theta=0", "CATS+BL", "theta"},
		{"CATS+BL:theta=-0.5", "CATS+BL", "theta"},
		{"CATS+BL:theta=1.5", "CATS+BL", "theta"},
		// NaN passes every bounds comparison; it is rejected as a kind
		// error instead. Errors carry the canonical name casing.
		{"CATS+BL:theta=NaN", "CATS+BL", "theta"},
		{"cats+bl:theta=Inf", "CATS+BL", "theta"},
	} {
		_, err := Canonicalize(tc.spec)
		se := specErr(t, err)
		if se.Name != tc.policy || se.Key != tc.key {
			t.Errorf("Canonicalize(%q): policy=%q key=%q, want policy=%q key=%q (err %v)",
				tc.spec, se.Name, se.Key, tc.policy, tc.key, err)
		}
	}
}

func TestResolveParams(t *testing.T) {
	e, p, err := Resolve("AMTHA:tiebreak=spread")
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "AMTHA" || !e.Extension {
		t.Fatalf("entry = %+v", e)
	}
	if got := p.Str("tiebreak", "index"); got != "spread" {
		t.Fatalf("tiebreak = %q", got)
	}
	// Absent keys fall back to the declared defaults.
	if got := p.Str("absent", "def"); got != "def" {
		t.Fatalf("Str default = %q", got)
	}
	if got := p.Int("absent", 7); got != 7 {
		t.Fatalf("Int default = %d", got)
	}
	if got := p.Float("absent", 2.5); got != 2.5 {
		t.Fatalf("Float default = %g", got)
	}

	_, p, err = Resolve("CATS+BL:theta=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Float("theta", 1.0); got != 0.25 {
		t.Fatalf("theta = %g", got)
	}
}

func TestListOrderAndDocs(t *testing.T) {
	es := List()
	var names []string
	for _, e := range es {
		names = append(names, e.Name)
	}
	want := []string{
		"FIFO", "CATS+BL", "CATS+SA", "CATA", "CATA+RSU", "TurboMode",
		"CATA+RSU-HA", "CATA+RSU-3L", "AMTHA",
	}
	if len(names) != len(want) {
		t.Fatalf("List = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("List order = %v, want %v", names, want)
		}
	}
	// Every entry is fully documented: summary, and typed params with
	// key/default/help. The README table renders straight from this.
	for _, e := range es {
		if e.Summary == "" {
			t.Errorf("%s has no summary", e.Name)
		}
		for _, d := range e.Params {
			if d.Key == "" || d.Default == "" || d.Help == "" {
				t.Errorf("%s param %+v is underdocumented", e.Name, d)
			}
			if d.Kind == spec.Enum && len(d.Choices) == 0 {
				t.Errorf("%s enum param %q has no choices", e.Name, d.Key)
			}
		}
	}
}

func TestRegisterRejectsBadEntries(t *testing.T) {
	mustPanic := func(name string, e Entry) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%s) did not panic", name)
			}
		}()
		Register(e)
	}
	build := func(spec.Params, *Env) error { return nil }
	mustPanic("duplicate", Entry{Name: "FIFO", Summary: "dup", Build: build})
	mustPanic("duplicate case-folded", Entry{Name: "fifo", Summary: "dup", Build: build})
	mustPanic("empty name", Entry{Summary: "anon", Build: build})
	mustPanic("nil build", Entry{Name: "NilBuild", Summary: "x"})
	mustPanic("bad enum param", Entry{
		Name: "BadEnum", Summary: "x", Build: build,
		Params: []spec.ParamDoc{{Key: "mode", Kind: spec.Enum, Default: "a", Help: "h"}},
	})
}

// TestKindString: the kind names every registered parameter publishes
// through /v1/policies are the wire contract's four.
func TestKindString(t *testing.T) {
	for _, e := range List() {
		for _, d := range e.Params {
			switch k := d.Kind.String(); k {
			case "string", "int", "float", "enum":
			default:
				t.Errorf("%s parameter %s has kind %q outside the wire contract", e.Name, d.Key, k)
			}
		}
	}
	if got := thetaDoc.Kind.String(); got != "float" {
		t.Errorf("theta kind = %q, want float", got)
	}
}
