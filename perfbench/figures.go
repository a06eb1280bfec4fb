package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"strconv"
	"time"

	"cata"
	"cata/internal/workloads"
)

// figures is the paper's own experiment: the Figure 4/5 matrix of the
// six paper benchmarks × every registered policy × fast-core budgets,
// through cata.RunMatrix with no cache. Runs are small (384–1,536 tasks
// at full scale), so per-run fixed costs and the engine dominate, and
// nothing of batch's cache, jobs or server runs.
type figures struct {
	scale     float64
	seeds     int  // seeds per round
	reference bool // check the default-seed matrix against the paper and digests.json

	policies []cata.Policy
	tasks    map[string]int64 // task count per paper workload
}

var figureFast = []int{8, 16, 24}

func newFigures(tiny bool) *figures {
	if tiny {
		return &figures{scale: 0.05, seeds: 1}
	}
	return &figures{scale: 1.0, seeds: 3, reference: true}
}

func (f *figures) prepare(*env) error { return nil }
func (f *figures) teardown() error    { return nil }

// setup resolves every registered policy and builds each paper workload
// once, for the task counts the rounds are checked against.
func (f *figures) setup(e *env) error {
	f.policies = f.policies[:0]
	for _, d := range cata.PolicyDocs() {
		p, err := cata.ParsePolicy(d.Label)
		if err != nil {
			return err
		}
		f.policies = append(f.policies, p)
	}
	f.tasks = map[string]int64{}
	for _, w := range workloads.Names() {
		p, err := workloads.Build(w, e.seed, f.scale)
		if err != nil {
			return err
		}
		f.tasks[w] = int64(p.Tasks())
	}
	return nil
}

// roundSeeds returns round r's matrix seeds, derived from seed+r.
func (f *figures) roundSeeds(seed uint64, r int) []uint64 {
	seeds := make([]uint64, f.seeds)
	for k := range seeds {
		seeds[k] = (seed+uint64(r))*uint64(f.seeds) + uint64(k)
	}
	return seeds
}

// matrix runs one figure matrix on par workers, collecting each run's
// host time.
func (f *figures) matrix(seeds []uint64, par int) (*cata.Matrix, []time.Duration, int, error) {
	var lat []time.Duration
	failed := 0
	m, err := cata.RunMatrix(cata.MatrixConfig{
		Policies: f.policies, FastCores: figureFast, Seeds: seeds, Scale: f.scale,
		Batch: cata.BatchOptions{Parallelism: par, OnProgress: func(p cata.BatchProgress) {
			if p.Index < 0 {
				return
			}
			lat = append(lat, p.Elapsed)
			if p.Err != "" {
				failed++
			}
		}},
	})
	return m, lat, failed, err
}

// opsPerRound is the number of simulations one round runs.
func (f *figures) opsPerRound() int {
	return len(f.policies) * len(workloads.Names()) * len(figureFast) * f.seeds
}

// check renders the matrix as CSV, checks every cell's task count, and
// returns the CSV's digest.
func (f *figures) check(m *cata.Matrix, ls *layerStats) (string, []string) {
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		return "", []string{fmt.Sprintf("figures: writing matrix CSV: %v", err)}
	}
	rows, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil || len(rows) < 2 {
		return "", []string{fmt.Sprintf("figures: reading matrix CSV back: %v", err)}
	}
	col := map[string]int{}
	for i, h := range rows[0] {
		col[h] = i
	}
	var problems []string
	for _, row := range rows[1:] {
		tasks, _ := strconv.ParseInt(row[col["tasks"]], 10, 64)
		if want := f.tasks[row[col["workload"]]]; tasks != want {
			problems = append(problems, fmt.Sprintf("figures: %s/%s/fast=%s ran %d tasks, want %d",
				row[col["workload"]], row[col["policy"]], row[col["fast_cores"]], tasks, want))
		}
		inv, _ := strconv.ParseInt(row[col["inversions"]], 10, 64)
		ls.addRun(tasks, inv, 0, row[:3], row)
	}
	return digestOf(buf.Bytes()), problems
}

func (f *figures) warm(e *env) (string, error) {
	m, _, _, err := f.matrix(f.roundSeeds(e.seed, 0), 1)
	if err != nil {
		return "", err
	}
	d, problems := f.check(m, nil)
	if len(problems) > 0 {
		return "", fmt.Errorf("%v", problems)
	}
	return d, nil
}

func (f *figures) measure(e *env, budget time.Duration, tr *tracer, ls *layerStats) (pass, error) {
	var tasksPerRound int64
	for _, n := range f.tasks {
		tasksPerRound += n * int64(len(f.policies)*len(figureFast)*f.seeds)
	}
	return loopRounds(budget, e.workers, func(r int) (round, error) {
		seeds := f.roundSeeds(e.seed, r)
		root := tr.begin("round", 0, "")
		defer tr.end(root)
		for _, w := range workloads.Names() {
			if err := ls.build(tr, root, w, seeds[0], f.scale); err != nil {
				return round{}, err
			}
		}
		probe := ls.probe()
		id := tr.begin("exp.Run", root, "")
		start := time.Now()
		m, lat, failed, err := f.matrix(seeds, e.workers)
		rd := round{kind: bothRound, ops: f.opsPerRound(), elapsed: time.Since(start), lat: lat, failed: failed, tasks: tasksPerRound}
		tr.end(id)
		var host time.Duration
		for _, d := range lat {
			host += d
		}
		probe.done(len(lat), host, 0)
		ls.simulated(tasksPerRound)
		if err != nil {
			rd.failed = rd.ops
			rd.problems = append(rd.problems, fmt.Sprintf("figures round %d: %v", r, err))
			return rd, nil
		}
		rd.digest, rd.problems = f.check(m, ls)
		return rd, nil
	})
}

// paperFigures are the paper's published §V averages the reference
// matrix is compared against: best average speedup and best normalized
// EDP over the fast-core budgets, for CATA and CATA+RSU. They are the
// only reference numbers the repository has, and earlier work may have
// tuned the model against them, so none is held out.
var paperFigures = []struct {
	policy cata.Policy
	edp    bool
	paper  float64
}{
	{cata.PolicyCATA, false, 1.184},
	{cata.PolicyCATA, true, 0.699},
	{cata.PolicyCATARSU, false, 1.204},
	{cata.PolicyCATARSU, true, 0.660},
}

// paperGap returns the mean relative error, in percent, of the matrix's
// figures against paperFigures.
func paperGap(m *cata.Matrix) float64 {
	var sum float64
	for _, pf := range paperFigures {
		best := math.Inf(1)
		if !pf.edp {
			best = math.Inf(-1)
		}
		for _, fc := range figureFast {
			if pf.edp {
				best = math.Min(best, m.AvgNormEDP(pf.policy, fc))
			} else {
				best = math.Max(best, m.AvgSpeedup(pf.policy, fc))
			}
		}
		sum += math.Abs(best-pf.paper) / pf.paper
	}
	return 100 * sum / float64(len(paperFigures))
}

// verify runs the reference matrix — the default seeds at full scale,
// independent of the run's seed — and requires every paper claim to
// hold and its CSV to match digests.json.
func (f *figures) verify(e *env, ls *layerStats) ([]string, int, error) {
	if !f.reference {
		return nil, 0, nil
	}
	m, _, failed, err := f.matrix(nil, e.workers)
	if err != nil {
		return []string{fmt.Sprintf("figures reference matrix: %v", err)}, failed, nil
	}
	var problems []string
	held := 0
	claims := m.Claims()
	for _, c := range claims {
		if c.Holds {
			held++
		} else {
			problems = append(problems, fmt.Sprintf("figures: paper claim %s no longer holds: %s", c.ID, c.Measured))
		}
	}
	if held != 10 || len(claims) != 10 {
		problems = append(problems, fmt.Sprintf("figures: %d of %d paper claims hold, want 10 of 10", held, len(claims)))
	}
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		return nil, 0, err
	}
	if want, ok := storedDigest("figures/reference"); !ok || want != digestOf(buf.Bytes()) {
		problems = append(problems, fmt.Sprintf("figures: reference matrix digest %s differs from digests.json's %q", digestOf(buf.Bytes()), want))
	}
	if ls != nil {
		ls.paperGap = paperGap(m)
	}
	return problems, failed, nil
}
