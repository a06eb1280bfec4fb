package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Verdicts of a (workload, metric) comparison.
const (
	verdictPass       = "pass"       // no worse than the bound allows
	verdictRegression = "regression" // worse than the bound allows
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
	verdictGain       = "gain"       // better by the 9-in-10 pair rule
)

// comparison is one (workload, metric) row of a compare report.
type comparison struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        summary `json:"a"`
	B        summary `json:"b"`
	// Worse is B's median change against A's as a share of A's,
	// positive when B is worse in the metric's direction.
	Worse float64 `json:"worse"`
	// Spread is the larger of the two sides' quartile spreads, each as a
	// share of its median.
	Spread float64 `json:"spread"`
	// Wins and Pairs count the runs of B better than the run of A they
	// pair with (the i-th of each side, in file-name order; ties count
	// for neither).
	Wins    int    `json:"wins"`
	Pairs   int    `json:"pairs"`
	Verdict string `json:"verdict"`
}

// compareMetric compares side B's runs of one metric against side A's
// under the metric's bound.
func compareMetric(def metricDef, a, b []float64) comparison {
	sa, sb := summarize(def.Unit, a), summarize(def.Unit, b)
	c := comparison{Metric: def.Name, A: sa, B: sb}
	// better reports whether x is better than y in the metric's direction.
	better := func(x, y float64) bool {
		if def.Better == "higher" {
			return x > y
		}
		return x < y
	}
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	c.Worse = sign * relChange(sb.Value, sa.Value)
	spread := func(s summary) float64 {
		if s.Value == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / math.Abs(s.Value)
	}
	c.Spread = math.Max(spread(sa), spread(sb))
	c.Pairs = min(len(a), len(b))
	for i := 0; i < c.Pairs; i++ {
		if better(b[i], a[i]) {
			c.Wins++
		}
	}
	allBetter, allWorse := len(a) > 0 && len(b) > 0, len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	wide := c.Spread > def.Bound
	switch {
	case c.Worse > def.Bound && (!wide || allWorse):
		c.Verdict = verdictRegression
	case wide && !allBetter:
		c.Verdict = verdictUnresolved
	case c.Worse < 0 && c.Pairs > 0 && float64(c.Wins) >= 0.9*float64(c.Pairs) &&
		math.Abs(sb.Value-sa.Value) > sa.Q3-sa.Q1:
		c.Verdict = verdictGain
	default:
		c.Verdict = verdictPass
	}
	return c
}

// relChange returns (x - base) / |base|, 0 when both are 0.
func relChange(x, base float64) float64 {
	switch {
	case base != 0:
		return (x - base) / math.Abs(base)
	case x == 0:
		return 0
	}
	return math.Copysign(math.Inf(1), x)
}

// readResults reads every run output in dir, in file-name order, and
// returns the result line of each (the JSON line carrying "workload").
func readResults(dir string) ([]*result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	var out []*result
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return nil, err
		}
		var last *result
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		for sc.Scan() {
			line := sc.Bytes()
			if !bytes.HasPrefix(line, []byte(`{"workload":`)) {
				continue
			}
			var r result
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", ent.Name(), err)
			}
			last = &r
		}
		if last != nil {
			out = append(out, last)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no perfbench run output", dir)
	}
	return out, nil
}

// compareRuns compares every end-to-end metric of every workload the two
// sides share, and checks that runs of one workload and seed agree on
// their digest and that every run was correct.
func compareRuns(defs []metricDef, as, bs []*result) ([]comparison, []string) {
	var problems []string
	digests := map[string]string{}
	byWorkload := func(rs []*result) map[string][]*result {
		m := map[string][]*result{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
			if !r.Correct {
				problems = append(problems, fmt.Sprintf("%s seed %d: run was not correct: %s", r.Workload, r.Seed, strings.Join(r.Problems, "; ")))
			}
			key := fmt.Sprintf("%s/seed-%d", r.Workload, r.Seed)
			if d, ok := digests[key]; ok && d != r.Digest {
				problems = append(problems, fmt.Sprintf("%s: digests differ between runs (%s vs %s)", key, d, r.Digest))
			}
			digests[key] = r.Digest
		}
		return m
	}
	wa, wb := byWorkload(as), byWorkload(bs)
	var names []string
	for w := range wa {
		if _, ok := wb[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var out []comparison
	for _, w := range names {
		for _, def := range defs {
			values := func(rs []*result) []float64 {
				var xs []float64
				for _, r := range rs {
					if s, ok := r.Metrics[def.Name]; ok {
						xs = append(xs, s.Value)
					}
				}
				return xs
			}
			a, b := values(wa[w]), values(wb[w])
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			c := compareMetric(def, a, b)
			c.Workload = w
			out = append(out, c)
		}
	}
	return out, problems
}

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// runCompare implements `perfbench compare [-bench BENCHMARK.json] A B`:
// A and B are directories of run outputs (the parent's and the change's,
// one file per run). It prints one row per (workload, metric) and exits
// 1 on any regression, digest mismatch or incorrect run.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] DIR_A DIR_B")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *benchPath, err)
		return 1
	}
	as, err := readResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	bs, err := readResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rows, problems := compareRuns(bf.EndToEnd, as, bs)
	fmt.Fprintf(stdout, "%-10s %-15s %28s %28s %8s %7s %6s  %s\n", "workload", "metric", "A median [q1 q3] n", "B median [q1 q3] n", "worse", "spread", "wins", "verdict")
	bad := len(problems) > 0
	for _, c := range rows {
		side := func(s summary) string { return fmt.Sprintf("%.4g [%.4g %.4g] %d", s.Value, s.Q1, s.Q3, s.N) }
		fmt.Fprintf(stdout, "%-10s %-15s %28s %28s %+7.1f%% %6.1f%% %2d/%-3d  %s\n",
			c.Workload, c.Metric, side(c.A), side(c.B), 100*c.Worse, 100*c.Spread, c.Wins, c.Pairs, c.Verdict)
		bad = bad || c.Verdict == verdictRegression
	}
	for _, p := range problems {
		fmt.Fprintln(stdout, "problem:", p)
	}
	if bad {
		return 1
	}
	return 0
}
