package workloads

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cata/internal/spec"
)

// TestParseSpec: a workload spec resolves through the shared grammar to
// its canonical form — name as written, parameters in sorted order.
func TestParseSpec(t *testing.T) {
	tok, err := CacheToken("layered:width=16,depth=32,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if want := "layered:depth=32,seed=7,width=16"; tok != want {
		t.Fatalf("canonical = %q, want %q", tok, want)
	}
	if tok, err := CacheToken("dedup"); err != nil || tok != "dedup" {
		t.Fatalf("bare spec: %q, %v", tok, err)
	}
}

func TestParseSpecCanonicalOrderInsensitive(t *testing.T) {
	a, err := CacheToken("layered:width=16,depth=32")
	if err != nil {
		t.Fatal(err)
	}
	b, err := CacheToken("layered: depth=32, width=16")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("canonical forms differ: %q vs %q", a, b)
	}
}

// TestParseSpecErrors: malformed specs are rejected with a structured
// error that names the workload component and, when one is at fault,
// the parameter.
func TestParseSpecErrors(t *testing.T) {
	for _, tc := range []struct{ spec, key string }{
		{"", ""},                             // empty name
		{":width=1", ""},                     // empty name with params
		{"layered:", ""},                     // dangling colon
		{"layered:width", ""},                // not key=val
		{"layered:=16", ""},                  // empty key
		{"layered:width=", "width"},          // empty value
		{"layered:width=1,width=2", "width"}, // duplicate key
	} {
		var se *spec.Error
		if _, err := Validate(tc.spec); !errors.As(err, &se) || se.Component != "workload" || se.Key != tc.key {
			t.Errorf("Validate(%q) = %v, want a workload spec error on key %q", tc.spec, err, tc.key)
		}
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct{ spec, key string }{
		{"nope", ""},                       // unknown workload
		{"Layered", ""},                    // names are case-sensitive
		{"layered:bogus=1", "bogus"},       // undocumented parameter
		{"layered:width=zero", "width"},    // non-integer value
		{"layered:width=0", "width"},       // below minimum
		{"layered:memfrac=1.5", "memfrac"}, // out of range
		{"layered:dur=NaN", "dur"},         // NaN passes every comparison
		{"layered:skew=NaN", "skew"},
		{"layered:scale=NaN", "scale"},
		{"layered:dur=Inf", "dur"},
		{"chain:sidedur=NaN", "sidedur"},
		{"dedup:width=4", "width"}, // paper benchmark has no width
		{"trace", "file"},          // file-backed without file
		{"chain:scale=2", "scale"}, // reserved scale out of range
		{"chain:scale=0", "scale"}, // zero scale would silently mean full scale
		{"chain:seed=-1", "seed"},  // seed is unsigned
	} {
		_, err := Build(tc.spec, 42, 1.0)
		var se *spec.Error
		if !errors.As(err, &se) || se.Key != tc.key {
			t.Errorf("Build(%q) = %v, want a spec error on key %q", tc.spec, err, tc.key)
			continue
		}
		if _, verr := Validate(tc.spec); verr == nil || verr.Error() != err.Error() {
			t.Errorf("Validate(%q) = %v, want Build's error %v", tc.spec, verr, err)
		}
	}
	// The reserved seed keeps its full uint64 range.
	if _, err := Validate("chain:seed=18446744073709551615"); err != nil {
		t.Errorf("max seed rejected: %v", err)
	}
}

func TestBuildSeedParamOverridesRunSeed(t *testing.T) {
	base := mustBuild(t, "chain:length=5,side=1", 42, 1.0)
	pinned := mustBuild(t, "chain:length=5,side=1,seed=42", 7, 1.0)
	if !sameProgram(base, pinned) {
		t.Fatal("seed=42 param did not override the run seed")
	}
	other := mustBuild(t, "chain:length=5,side=1", 7, 1.0)
	if sameProgram(base, other) {
		t.Fatal("different run seeds produced identical programs")
	}
}

func TestBuildPaperBenchmarksMatchLegacyPath(t *testing.T) {
	for _, w := range All() {
		legacy := w.Build(1337, 0.2)
		viaRegistry := mustBuild(t, w.Name(), 1337, 0.2)
		if !sameProgram(legacy, viaRegistry) {
			t.Fatalf("%s: registry build differs from Workload.Build", w.Name())
		}
	}
}

func TestListOrdering(t *testing.T) {
	es := List()
	var names []string
	for _, e := range es {
		names = append(names, e.Name)
	}
	joined := strings.Join(names, " ")
	wantPrefix := "blackscholes swaptions fluidanimate bodytrack dedup ferret"
	if !strings.HasPrefix(joined, wantPrefix) {
		t.Fatalf("paper benchmarks not first in paper order: %s", joined)
	}
	rest := names[6:]
	for i := 1; i < len(rest); i++ {
		if rest[i-1] >= rest[i] {
			t.Fatalf("non-paper entries not alphabetical: %v", rest)
		}
	}
}

func TestCacheTokenCanonicalizes(t *testing.T) {
	a, err := CacheToken("layered:width=16,depth=32")
	if err != nil {
		t.Fatal(err)
	}
	b, err := CacheToken("layered:depth=32,width=16")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("parameter order changed the cache token: %q vs %q", a, b)
	}
	c, err := CacheToken("layered:depth=32,width=8")
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different parameters share a cache token")
	}
}

func TestCacheTokenHashesFileContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.dot")
	write := func(s string) {
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("digraph g {\n  a -> b;\n}\n")
	tok1, err := CacheToken("dot:file=" + path)
	if err != nil {
		t.Fatal(err)
	}
	write("digraph g {\n  a -> b;\n  b -> c;\n}\n")
	tok2, err := CacheToken("dot:file=" + path)
	if err != nil {
		t.Fatal(err)
	}
	if tok1 == tok2 {
		t.Fatal("editing the file did not change the cache token")
	}
	if _, err := CacheToken("dot:file=" + filepath.Join(dir, "missing.dot")); err == nil {
		t.Fatal("missing file accepted")
	}
}
