// Package spec is the one grammar behind every configuration string in
// the module. Workloads (internal/workloads), policies
// (internal/policies) and open-system arrival processes
// (internal/opensys) are all selected by a spec of the form
//
//	name
//	name:key=val,key=val,...
//
// Parse checks the syntax, Spec.Canonical renders the canonical form
// that cache keys hash, Spec.Check validates the parameters against the
// registry entry's typed ParamDoc list, and Params gives the entry's
// hooks typed access to the validated values. Every rejection is one
// *Error naming the component, the entry and the offending key, which
// is what lets catad answer any bad spec with a structured 400.
package spec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind is the declared type of a parameter.
type Kind int

const (
	// String accepts any value.
	String Kind = iota
	// Int accepts decimal integers, bounded by ParamDoc.Min/Max.
	Int
	// Float accepts finite numbers, bounded by ParamDoc.Min/Max.
	Float
	// Enum accepts exactly the values in ParamDoc.Choices.
	Enum
	// Uint accepts decimal integers over the full uint64 range.
	Uint
	// Duration accepts Go duration strings ("500us", "5ms"), bounded in
	// seconds by ParamDoc.Min/Max.
	Duration
)

var kindNames = [...]string{
	String: "string", Int: "int", Float: "float", Enum: "enum", Uint: "uint", Duration: "duration",
}

// String names the kind for listings and error messages.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "Kind(" + strconv.Itoa(int(k)) + ")"
	}
	return kindNames[k]
}

// ParamDoc documents and types one parameter. A spec may only set keys
// that its entry documents, each value must satisfy the key's kind and
// bounds, and every Required key must be present — all checked by
// Spec.Check without building anything, so catad can reject a bad spec
// at admission.
type ParamDoc struct {
	// Key is the parameter name as written in a spec.
	Key string
	// Kind is the declared value type.
	Kind Kind
	// Default describes the value used when the key is absent.
	Default string
	// Help is a one-line description.
	Help string
	// Required rejects specs that omit the key.
	Required bool
	// Min and Max bound Int, Uint, Float and Duration values (inclusive,
	// unless MinExclusive). Max at or below Min disables the upper bound.
	Min, Max float64
	// MinExclusive makes the lower bound strict (e.g. theta in (0,1]).
	MinExclusive bool
	// Choices lists the accepted values of an Enum parameter.
	Choices []string
}

// check validates one value against d and returns why it fails, or ""
// when it passes. Only the failure path allocates.
func (d *ParamDoc) check(val string) string {
	var v float64
	switch d.Kind {
	case Int:
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Sprintf("value %q is not an integer", val)
		}
		v = float64(n)
	case Uint:
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Sprintf("value %q is not an unsigned integer", val)
		}
		v = float64(n)
	case Float:
		// NaN passes every comparison below, and an infinity is never a
		// meaningful size, rate or fraction: both are rejected outright.
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Sprintf("value %q is not a finite number", val)
		}
		v = f
	case Duration:
		dur, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Sprintf("value %q is not a duration", val)
		}
		v = dur.Seconds()
	case Enum:
		if slices.Contains(d.Choices, val) {
			return ""
		}
		return fmt.Sprintf("value %q is not one of %s", val, strings.Join(d.Choices, ", "))
	default:
		return ""
	}
	switch {
	case d.MinExclusive && v <= d.Min:
		return fmt.Sprintf("value %s must be > %g", val, d.Min)
	case v < d.Min:
		return fmt.Sprintf("value %s must be >= %g", val, d.Min)
	case d.Max > d.Min && v > d.Max:
		return fmt.Sprintf("value %s must be <= %g", val, d.Max)
	}
	return ""
}

// CheckDocs reports malformed declarations across the lists — an empty
// or repeated key, an Enum without choices — the programmer errors a
// registry's Register panics on.
func CheckDocs(docs ...[]ParamDoc) error {
	seen := map[string]bool{}
	for _, ds := range docs {
		for _, d := range ds {
			switch {
			case d.Key == "" || seen[d.Key]:
				return fmt.Errorf("spec: empty or duplicate parameter key %q", d.Key)
			case d.Kind == Enum && len(d.Choices) == 0:
				return fmt.Errorf("spec: parameter %s is an enum with no choices", d.Key)
			}
			seen[d.Key] = true
		}
	}
	return nil
}

// Error reports a spec rejected by the grammar or by a registry.
type Error struct {
	// Component is what the spec selects — "workload", "policy" or
	// "arrivals" — and the key a catad 400 names Name under.
	Component string
	// Spec is the spec as written.
	Spec string
	// Name is the entry name (canonical case when the registry knows
	// it); "" when the spec has none.
	Name string
	// Key is the offending parameter; "" when the name or the syntax is
	// at fault.
	Key string
	// Reason says what was wrong.
	Reason string
}

// Error implements error.
func (e *Error) Error() string {
	switch {
	case e.Key != "":
		return fmt.Sprintf("%s %s: parameter %s: %s", e.Component, e.Name, e.Key, e.Reason)
	case e.Name != "":
		return fmt.Sprintf("%s %s: %s", e.Component, e.Name, e.Reason)
	}
	return fmt.Sprintf("%s spec %q: %s", e.Component, e.Spec, e.Reason)
}

// Spec is a parsed spec string.
type Spec struct {
	// Name selects the registry entry, as written. Registries that match
	// names case-insensitively replace it with the entry's name, which
	// then appears in the canonical form and in errors.
	Name string
	// Params holds the parameters in canonical (sorted-key) order.
	Params Params

	component, raw string // for errors
}

// Params is a spec's parameter list in sorted-key order, with typed
// accessors for the hooks that consume it. The accessors return the
// default for an absent key and do not validate: Spec.Check has already
// held every value to its ParamDoc.
type Params struct{ kvs []kv }

type kv struct{ key, val string }

// Parse parses s, a spec for the given component ("workload", "policy"
// or "arrivals", the field errors name it under). It checks syntax
// only — a non-empty name, and after a ':' one or more key=val pairs
// with non-empty keys and values and no key repeated — and trims the
// spaces around the name, keys and values.
func Parse(component, s string) (Spec, error) {
	name, rest, hasParams := strings.Cut(s, ":")
	sp := Spec{Name: strings.TrimSpace(name), component: component, raw: s}
	if sp.Name == "" {
		return Spec{}, sp.Errorf("", "empty name")
	}
	if !hasParams {
		return sp, nil
	}
	if strings.TrimSpace(rest) == "" {
		return Spec{}, sp.Errorf("", "spec has a ':' but no parameters")
	}
	kvs := make([]kv, 0, strings.Count(rest, ",")+1)
	for more := true; more; {
		var field string
		field, rest, more = strings.Cut(rest, ",")
		key, val, ok := strings.Cut(field, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch {
		case !ok || key == "":
			return Spec{}, sp.Errorf("", "bad parameter %q (want key=val)", field)
		case val == "":
			return Spec{}, sp.Errorf(key, "empty value")
		}
		kvs = append(kvs, kv{key, val})
	}
	// Sorting puts a repeated key next to its first occurrence.
	slices.SortFunc(kvs, func(a, b kv) int { return strings.Compare(a.key, b.key) })
	for i := 1; i < len(kvs); i++ {
		if kvs[i].key == kvs[i-1].key {
			return Spec{}, sp.Errorf(kvs[i].key, "duplicate parameter")
		}
	}
	sp.Params = Params{kvs}
	return sp, nil
}

// Errorf returns an *Error for the spec, naming the offending key (""
// when the name or the syntax is at fault).
func (sp Spec) Errorf(key, format string, args ...any) *Error {
	return &Error{
		Component: sp.component, Spec: sp.raw, Name: sp.Name, Key: key,
		Reason: fmt.Sprintf(format, args...),
	}
}

// Canonical returns the spec in canonical form: the name followed by the
// parameters in sorted key order, without the spaces Parse trimmed. Two
// spellings that differ only in parameter order or spacing canonicalize
// identically, so cache keys built from the canonical form never fork
// on formatting.
func (sp Spec) Canonical() string {
	if len(sp.Params.kvs) == 0 {
		return sp.Name
	}
	n := len(sp.Name)
	for _, p := range sp.Params.kvs {
		n += len(p.key) + len(p.val) + 2
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(sp.Name)
	sep := byte(':')
	for _, p := range sp.Params.kvs {
		b.WriteByte(sep)
		b.WriteString(p.key)
		b.WriteByte('=')
		b.WriteString(p.val)
		sep = ','
	}
	return b.String()
}

// Check validates the parameters against the entry's ParamDoc lists:
// every key must be documented, every value must satisfy its doc's kind
// and bounds, and every Required key must be present. It allocates only
// to report a failure.
func (sp Spec) Check(docs ...[]ParamDoc) error {
	for _, p := range sp.Params.kvs {
		d := find(docs, p.key)
		if d == nil {
			return sp.Errorf(p.key, "unknown parameter (have %s)", keys(docs))
		}
		if reason := d.check(p.val); reason != "" {
			return sp.Errorf(p.key, "%s", reason)
		}
	}
	for _, ds := range docs {
		for i := range ds {
			if !ds[i].Required {
				continue
			}
			if _, ok := sp.Params.Lookup(ds[i].Key); !ok {
				return sp.Errorf(ds[i].Key, "missing required parameter")
			}
		}
	}
	return nil
}

// find returns the doc declaring key, or nil.
func find(docs [][]ParamDoc, key string) *ParamDoc {
	for _, ds := range docs {
		for i := range ds {
			if ds[i].Key == key {
				return &ds[i]
			}
		}
	}
	return nil
}

// keys lists every declared key, sorted, for error messages.
func keys(docs [][]ParamDoc) string {
	var ks []string
	for _, ds := range docs {
		for i := range ds {
			ks = append(ks, ds[i].Key)
		}
	}
	if len(ks) == 0 {
		return "none"
	}
	sort.Strings(ks)
	return strings.Join(ks, ", ")
}

// Lookup returns the raw value of key.
func (p Params) Lookup(key string) (string, bool) {
	for _, e := range p.kvs {
		if e.key == key {
			return e.val, true
		}
	}
	return "", false
}

// Str returns the value of key, or def when absent.
func (p Params) Str(key, def string) string {
	if v, ok := p.Lookup(key); ok {
		return v
	}
	return def
}

// Int returns the Int value of key, or def when absent.
func (p Params) Int(key string, def int) int {
	if v, ok := p.Lookup(key); ok {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// Uint64 returns the Uint value of key, or def when absent.
func (p Params) Uint64(key string, def uint64) uint64 {
	if v, ok := p.Lookup(key); ok {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// Float returns the Float value of key, or def when absent.
func (p Params) Float(key string, def float64) float64 {
	if v, ok := p.Lookup(key); ok {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f
		}
	}
	return def
}

// Duration returns the Duration value of key, or def when absent.
func (p Params) Duration(key string, def time.Duration) time.Duration {
	if v, ok := p.Lookup(key); ok {
		if d, err := time.ParseDuration(v); err == nil {
			return d
		}
	}
	return def
}
