package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cata"
	"cata/internal/server"
)

// newTestService boots a daemon on an httptest listener and returns its
// base URL and a typed client for it. Cleanup cancels whatever is still
// in flight.
func newTestService(t *testing.T, cfg server.Config) (string, *cata.ServiceClient) {
	t.Helper()
	if cfg.CachePath == "" {
		cfg.CachePath = filepath.Join(t.TempDir(), "cache.jsonl")
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = srv.Drain(ctx) // deadline force-cancels leftovers
		_ = srv.Close()
	})
	return ts.URL, cata.NewServiceClient(ts.URL, nil)
}

// post400 submits raw JSON, requires a 400, and decodes the structured
// error body.
func post400(t *testing.T, base, path, body string) map[string]string {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("POST %s %s: status %d, want 400", path, body, resp.StatusCode)
	}
	var got map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	return got
}

// seeds returns n distinct seeds, the cheap way to size a sweep.
func seeds(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

// blockerSweep is a sweep big enough (~1500 tiny runs at parallelism 1)
// to keep a worker busy while the test issues a few local requests.
func blockerSweep() cata.MatrixConfig {
	return cata.MatrixConfig{
		Workloads: []string{"swaptions"},
		Policies:  []cata.Policy{cata.PolicyCATA},
		FastCores: []int{8},
		Seeds:     seeds(1500),
		Scale:     0.05,
	}
}

// waitTerminal polls until the job leaves the running states.
func waitTerminal(t *testing.T, c *cata.ServiceClient, id string) cata.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitState polls until the job reaches exactly want.
func waitState(t *testing.T, c *cata.ServiceClient, id string, want cata.JobState) cata.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s in %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestIntrospectionEndpoints: /healthz, /v1/policies and /v1/workloads
// reflect the embedded registries; bad requests get typed 4xx answers.
func TestIntrospectionEndpoints(t *testing.T) {
	_, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, %v", h, err)
	}
	if h.Workers != 1 || h.QueueDepth != 4 {
		t.Fatalf("health sizing = %+v", h)
	}

	ps, err := c.Policies(ctx)
	if err != nil || len(ps) != len(cata.PolicyDocs()) {
		t.Fatalf("policies = %d entries, %v", len(ps), err)
	}
	if ps[0].Label != "FIFO" || ps[0].Policy != cata.PolicyFIFO {
		t.Fatalf("policies[0] = %+v", ps[0])
	}

	ws, err := c.Workloads(ctx)
	if err != nil || len(ws) != len(cata.Workloads()) {
		t.Fatalf("workloads = %d entries, %v", len(ws), err)
	}

	// Unknown job: 404.
	var se *cata.ServiceError
	if _, err := c.Job(ctx, "nope"); !errors.As(err, &se) || se.StatusCode != 404 {
		t.Fatalf("unknown job err = %v", err)
	}
	if _, err := c.Cancel(ctx, "nope"); !errors.As(err, &se) || se.StatusCode != 404 {
		t.Fatalf("cancel unknown job err = %v", err)
	}
	// Unknown workload: 400 before admission.
	if _, err := c.SubmitRun(ctx, cata.RunConfig{Workload: "nope"}); !errors.As(err, &se) || se.StatusCode != 400 {
		t.Fatalf("unknown workload err = %v", err)
	}
	// Missing workload: 400.
	if _, err := c.SubmitRun(ctx, cata.RunConfig{}); !errors.As(err, &se) || se.StatusCode != 400 {
		t.Fatalf("missing workload err = %v", err)
	}
}

// TestQueueFullShedding: with the single worker busy and the depth-1
// queue occupied, the next submission is shed with 429 and the daemon
// stays healthy; after the blocker is canceled, admission reopens.
func TestQueueFullShedding(t *testing.T) {
	_, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 1, SimParallelism: 1})
	ctx := context.Background()

	blocker, err := c.SubmitSweep(ctx, blockerSweep())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, blocker.ID, cata.JobRunning)

	queued, err := c.SubmitRun(ctx, cata.RunConfig{Workload: "dedup", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != cata.JobQueued {
		t.Fatalf("second job state = %s, want queued", queued.State)
	}

	_, err = c.SubmitRun(ctx, cata.RunConfig{Workload: "dedup", Scale: 0.05})
	var se *cata.ServiceError
	if !errors.As(err, &se) || se.StatusCode != 429 {
		t.Fatalf("overflow submission err = %v, want 429", err)
	}

	// Shed requests leave no job behind.
	js, err := c.Jobs(ctx)
	if err != nil || len(js) != 2 {
		t.Fatalf("jobs = %d, %v; want 2", len(js), err)
	}

	if _, err := c.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, c, blocker.ID)
	waitTerminal(t, c, queued.ID) // queue slot freed, job ran
	if _, err := c.SubmitRun(ctx, cata.RunConfig{Workload: "dedup", Scale: 0.05}); err != nil {
		t.Fatalf("admission after shed: %v", err)
	}
}

// TestCancelBeforeStart: canceling a queued job via the API moves it
// straight to canceled; it never runs and its event log shows only
// queued → canceled.
func TestCancelBeforeStart(t *testing.T) {
	_, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 4, SimParallelism: 1})
	ctx := context.Background()

	blocker, err := c.SubmitSweep(ctx, blockerSweep())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, blocker.ID, cata.JobRunning)

	victim, err := c.SubmitRun(ctx, cata.RunConfig{Workload: "dedup", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Cancel(ctx, victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != cata.JobCanceled {
		t.Fatalf("victim state after cancel = %s", st.State)
	}
	if !st.Started.IsZero() {
		t.Fatal("canceled-before-start job has a start time")
	}

	var events []cata.JobEvent
	if err := c.Events(ctx, victim.ID, func(e cata.JobEvent) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].State != cata.JobQueued || events[1].State != cata.JobCanceled {
		t.Fatalf("event log = %+v", events)
	}

	if _, err := c.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, c, blocker.ID)
}

// TestDuplicateRunServedFromCache: resubmitting an identical spec is
// answered from the shared result cache — flagged cached, bit-identical
// result, no re-simulation.
func TestDuplicateRunServedFromCache(t *testing.T) {
	_, c := newTestService(t, server.Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()
	cfg := cata.RunConfig{Workload: "dedup", Policy: cata.PolicyCATA, FastCores: 8, Seed: 77, Scale: 0.05}

	first, err := c.SubmitRun(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := c.Wait(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st1.State != cata.JobSucceeded || st1.Result == nil || len(st1.Result.Results) != 1 {
		t.Fatalf("first job = %+v", st1)
	}
	if st1.Result.Results[0].Cached {
		t.Fatal("first execution claims to be cached")
	}

	second, err := c.SubmitRun(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Wait(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != cata.JobSucceeded || st2.Result == nil || st2.Result.Cached != 1 {
		t.Fatalf("second job = %+v", st2)
	}
	o1, o2 := st1.Result.Results[0], st2.Result.Results[0]
	if !o2.Cached {
		t.Fatal("resubmission was re-simulated")
	}
	if o1.Result == nil || o2.Result == nil || *o1.Result != *o2.Result {
		t.Fatalf("cached result drifted:\nfirst:  %+v\nsecond: %+v", o1.Result, o2.Result)
	}
}

// TestFailedRunReported: a run that passes admission but fails in the
// worker is reported as that run's error, with the cause preserved, and
// does not fail the job. A Poisson rate this small passes the arrival
// spec's bounds, but its first arrival lies past any simulated time.
func TestFailedRunReported(t *testing.T) {
	_, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	st, err := c.SubmitRun(ctx, cata.RunConfig{Workload: "forkjoin", Arrivals: "poisson:lambda=1e-300,jobs=2"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, c, st.ID)
	if final.State != cata.JobSucceeded {
		t.Fatalf("job state = %s (per-run failures must not fail the job)", final.State)
	}
	if final.Result == nil || final.Result.Failed != 1 || final.Result.Results[0].Error == "" {
		t.Fatalf("result = %+v, want one failed outcome", final.Result)
	}
}

// TestHostileSizesRejected: fast_cores outside [0, cores], a negative
// core count and a scale outside (0, 1] are refused at admission with a
// 400 naming the field, for runs and for sweeps, and nothing is queued.
// Each of these used to pass admission and panic a worker goroutine,
// taking the daemon and every in-flight job down.
func TestHostileSizesRejected(t *testing.T) {
	base, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})
	for _, tc := range []struct{ path, body, field string }{
		{"/v1/runs", `{"workload":"dedup","fast_cores":64}`, "fast_cores"},
		{"/v1/runs", `{"workload":"dedup","fast_cores":-3}`, "fast_cores"},
		{"/v1/runs", `{"workload":"dedup","policy":"CATA","fast_cores":64}`, "fast_cores"},
		{"/v1/runs", `{"workload":"dedup","policy":"CATA+RSU","fast_cores":-3}`, "fast_cores"},
		{"/v1/runs", `{"workload":"dedup","policy":"TurboMode","fast_cores":64}`, "fast_cores"},
		{"/v1/runs", `{"workload":"dedup","policy":"CATA+RSU-3L","fast_cores":64}`, "fast_cores"},
		{"/v1/runs", `{"workload":"dedup","cores":8,"fast_cores":16}`, "fast_cores"},
		{"/v1/runs", `{"workload":"dedup","cores":-1}`, "cores"},
		{"/v1/runs", `{"workload":"dedup","scale":1.5}`, "scale"},
		{"/v1/runs", `{"workload":"dedup","scale":-0.5}`, "scale"},
		{"/v1/sweeps", `{"workloads":["dedup"],"fast_cores":[8,64]}`, "fast_cores"},
		{"/v1/sweeps", `{"workloads":["dedup"],"cores":8}`, "fast_cores"},
		{"/v1/sweeps", `{"workloads":["dedup"],"scale":2}`, "scale"},
	} {
		got := post400(t, base, tc.path, tc.body)
		if !strings.Contains(got["error"], ": "+tc.field+" ") {
			t.Errorf("POST %s %s: body = %v, want an error naming %s", tc.path, tc.body, got, tc.field)
		}
	}
	assertNothingQueued(t, c)
}

// TestFileBackedWorkloadsRejected: catad never opens a file a client
// names. trace:file= and dot:file= workloads are refused at admission,
// for runs and for sweeps, with a 400 naming the workload — whether
// the file exists or not, so the answer says nothing about the host.
func TestFileBackedWorkloadsRejected(t *testing.T) {
	base, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})
	for _, tc := range []struct{ path, body, workload string }{
		{"/v1/runs", `{"workload":"trace:file=/etc/passwd"}`, "trace"},
		{"/v1/runs", `{"workload":"dot:file=/etc/passwd"}`, "dot"},
		{"/v1/runs", `{"workload":"trace:file=/no/such/file.json"}`, "trace"},
		{"/v1/sweeps", `{"workloads":["dedup","dot:file=/etc/hostname"]}`, "dot"},
	} {
		got := post400(t, base, tc.path, tc.body)
		if got["workload"] != tc.workload || !strings.Contains(got["error"], "file-backed") {
			t.Errorf("POST %s %s: body = %v, want a file-backed refusal naming %s", tc.path, tc.body, got, tc.workload)
		}
	}
	assertNothingQueued(t, c)
}

// assertNothingQueued requires that rejected submissions left no job
// behind and the daemon healthy.
func assertNothingQueued(t *testing.T, c *cata.ServiceClient) {
	t.Helper()
	ctx := context.Background()
	if js, err := c.Jobs(ctx); err != nil || len(js) != 0 {
		t.Fatalf("rejected submissions left %d jobs behind (%v)", len(js), err)
	}
	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("health after rejections = %+v, %v", h, err)
	}
}

// scrapeMetrics fetches /metrics and parses every sample line into a
// map keyed by the full sample name (labels included).
func scrapeMetrics(t *testing.T, c *cata.ServiceClient) map[string]float64 {
	t.Helper()
	body, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsEndpoint: /metrics serves parseable Prometheus text that
// reflects the work the daemon actually did — a completed run moves the
// job, cache, and simulator counters. Metrics are process-global, so
// the assertions are on deltas across this test's own traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 8})
	ctx := context.Background()
	before := scrapeMetrics(t, c)

	cfg := cata.RunConfig{Workload: "swaptions", Policy: cata.PolicyCATA, FastCores: 8, Seed: 11, Scale: 0.05}
	for i := 0; i < 2; i++ { // second submission is the cache hit
		st, err := c.SubmitRun(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitTerminal(t, c, st.ID); final.State != cata.JobSucceeded {
			t.Fatalf("job %d state = %s", i, final.State)
		}
	}

	after := scrapeMetrics(t, c)
	delta := func(name string) float64 { return after[name] - before[name] }
	if d := delta(`cata_jobs_completed_total{state="succeeded"}`); d < 2 {
		t.Errorf("succeeded-jobs delta = %v, want >= 2", d)
	}
	if d := delta("cata_jobs_submitted_total"); d < 2 {
		t.Errorf("submitted-jobs delta = %v, want >= 2", d)
	}
	if d := delta("cata_cache_misses_total"); d < 1 {
		t.Errorf("cache-miss delta = %v, want >= 1", d)
	}
	if d := delta("cata_cache_hits_total"); d < 1 {
		t.Errorf("cache-hit delta = %v, want >= 1", d)
	}
	if d := delta("cata_sim_runs_total"); d < 1 {
		t.Errorf("sim-runs delta = %v, want >= 1", d)
	}
	if d := delta("cata_accel_granted_total"); d < 1 {
		t.Errorf("accel-granted delta = %v, want >= 1 (CATA run must accelerate)", d)
	}
	if d := delta(`cata_job_duration_seconds_count`); d < 2 {
		t.Errorf("job-duration observations delta = %v, want >= 2", d)
	}
	// Presence-only: gauges and derived rates whose values depend on
	// timing, not on this test's traffic.
	for _, name := range []string{
		"cata_jobs_queue_depth",
		"cata_jobs_running",
		"cata_sim_events_per_sec",
		"cata_power_budget_utilization",
	} {
		if _, ok := after[name]; !ok {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
}

// TestTracedRunServesRecording: a run submitted with "trace": true keeps
// its flight recording, served at /v1/jobs/{id}/trace as a Chrome trace
// document with all three track types: spans ("X"), counters ("C") and
// instants ("i"). The same config run untraced first, so the traced run
// is not answered from the cache; the untraced job has no trace (404).
func TestTracedRunServesRecording(t *testing.T) {
	_, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	cfg := cata.RunConfig{Workload: "swaptions", Policy: cata.PolicyCATA, FastCores: 8, Scale: 0.05}
	var ids []string
	for _, trace := range []bool{false, true} {
		cfg.Trace = trace
		st, err := c.SubmitRun(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitTerminal(t, c, st.ID); final.State != cata.JobSucceeded {
			t.Fatalf("trace=%v job state = %s", trace, final.State)
		}
		ids = append(ids, st.ID)
	}

	data, err := c.Trace(ctx, ids[1])
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("served trace does not parse: %v", err)
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e.Ph]++
	}
	for _, ph := range []string{"X", "C", "i"} {
		if phases[ph] == 0 {
			t.Errorf("served trace has no %q events (phases %v)", ph, phases)
		}
	}

	var se *cata.ServiceError
	if _, err := c.Trace(ctx, ids[0]); !errors.As(err, &se) || se.StatusCode != http.StatusNotFound {
		t.Fatalf("trace of an untraced job: err = %v, want a 404", err)
	}
}

// TestOpenSystemRun: a run with an arrival process comes back with its
// open-system report (arrivals, completions, response-time percentiles)
// and moves the opensys job counter by every injected job and the
// response-time histogram by every completed one.
func TestOpenSystemRun(t *testing.T) {
	_, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	before := scrapeMetrics(t, c)

	st, err := c.SubmitRun(ctx, cata.RunConfig{
		Workload: "forkjoin:width=4,phases=2,dur=50", Policy: cata.PolicyCATA,
		FastCores: 8, Cores: 8, Arrivals: "poisson:lambda=2000,jobs=20,deadline=5ms,cap=4",
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, c, st.ID)
	if final.State != cata.JobSucceeded || final.Result == nil || len(final.Result.Results) != 1 {
		t.Fatalf("open-system job = %+v", final)
	}
	res := final.Result.Results[0].Result
	if res == nil || res.Open == nil {
		t.Fatalf("result carries no open-system report: %+v", final.Result.Results[0])
	}
	o := res.Open
	if o.JobsArrived != 20 || o.JobsCompleted == 0 || o.JobsCompleted+o.JobsShed != o.JobsArrived {
		t.Errorf("arrived %d, completed %d, shed %d; want 20 arrivals, each completed or shed",
			o.JobsArrived, o.JobsCompleted, o.JobsShed)
	}
	if o.P50 <= 0 || o.P99 < o.P50 || o.P999 < o.P99 {
		t.Errorf("response percentiles p50 %v, p99 %v, p99.9 %v: want 0 < p50 <= p99 <= p99.9", o.P50, o.P99, o.P999)
	}

	after := scrapeMetrics(t, c)
	delta := func(name string) float64 { return after[name] - before[name] }
	if d := delta("cata_opensys_jobs_total"); d < 20 {
		t.Errorf("cata_opensys_jobs_total delta = %v, want >= 20", d)
	}
	if d := delta("cata_opensys_response_seconds_count"); d < float64(o.JobsCompleted) {
		t.Errorf("cata_opensys_response_seconds_count delta = %v, want >= %d completed jobs", d, o.JobsCompleted)
	}
}

// TestPolicySpecValidation: bad policy specs are rejected at admission
// with a structured 400 naming the offending component, and a
// registered policy is fully usable through the daemon by its spec
// string alone — listed with its typed params, and runnable.
func TestPolicySpecValidation(t *testing.T) {
	base, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	// /v1/policies exposes the registered AMTHA entry with its typed
	// parameter docs — the registry is self-describing over the wire.
	ps, err := c.Policies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var amtha *cata.PolicyInfo
	for i := range ps {
		if ps[i].Label == "AMTHA" {
			amtha = &ps[i]
		}
	}
	if amtha == nil {
		t.Fatalf("/v1/policies does not list AMTHA: %+v", ps)
	}
	if !amtha.Extension || len(amtha.Params) != 1 {
		t.Fatalf("AMTHA entry = %+v", amtha)
	}
	if p := amtha.Params[0]; p.Key != "tiebreak" || p.Kind != "enum" ||
		p.Default != "index" || len(p.Choices) != 3 {
		t.Fatalf("AMTHA param doc = %+v", p)
	}

	// Unknown policy name: the body names the policy.
	got := post400(t, base, "/v1/runs", `{"workload":"dedup","policy":"NoSuchPolicy"}`)
	if got["policy"] != "NoSuchPolicy" || !strings.Contains(got["error"], "unknown policy") {
		t.Fatalf("unknown-policy body = %v", got)
	}
	// Bad enum value: the body names policy and the offending key.
	got = post400(t, base, "/v1/runs", `{"workload":"dedup","policy":"AMTHA:tiebreak=bogus"}`)
	if got["policy"] != "AMTHA" || got["param"] != "tiebreak" {
		t.Fatalf("bad-enum body = %v", got)
	}
	// Out-of-bounds float deep inside a sweep config.
	got = post400(t, base, "/v1/sweeps", `{"workloads":["dedup"],"policies":["FIFO","CATS+BL:theta=2"]}`)
	if got["policy"] != "CATS+BL" || got["param"] != "theta" {
		t.Fatalf("sweep bad-theta body = %v", got)
	}
	// Unknown parameter key.
	got = post400(t, base, "/v1/runs", `{"workload":"dedup","policy":"FIFO:hint=1"}`)
	if got["policy"] != "FIFO" || got["param"] != "hint" {
		t.Fatalf("unknown-key body = %v", got)
	}

	// And the happy path: a parameterized spec string is accepted,
	// simulated, and succeeds.
	job, err := c.SubmitRun(ctx, cata.RunConfig{
		Workload: "dedup", Policy: cata.Policy("AMTHA:tiebreak=spread"),
		FastCores: 4, Scale: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != cata.JobSucceeded || st.Result == nil || len(st.Result.Results) != 1 {
		t.Fatalf("AMTHA job = %+v", st)
	}
}

// TestWorkloadAndArrivalSpecValidation: bad workload and arrival specs
// are rejected at admission — before any job is queued — with the same
// structured 400 policies get, naming the spec and the parameter. A NaN
// duration used to pass admission and panic a worker, taking the daemon
// down; it must leave the daemon healthy.
func TestWorkloadAndArrivalSpecValidation(t *testing.T) {
	base, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	for _, tc := range []struct {
		path, body           string
		component, name, key string
	}{
		{"/v1/runs", `{"workload":"layered:dur=NaN"}`, "workload", "layered", "dur"},
		{"/v1/runs", `{"workload":"layered:width=0"}`, "workload", "layered", "width"},
		{"/v1/runs", `{"workload":"layered:bogus=1"}`, "workload", "layered", "bogus"},
		{"/v1/runs", `{"workload":"trace"}`, "workload", "trace", "file"},
		{"/v1/runs", `{"workload":"dedup","arrivals":"poisson:lambda=NaN"}`, "arrivals", "poisson", "lambda"},
		{"/v1/runs", `{"workload":"dedup","arrivals":"poisson:jobs=10abc"}`, "arrivals", "poisson", "jobs"},
		{"/v1/runs", `{"workload":"dedup","arrivals":"fixed:interval=1ms,lambda=5"}`, "arrivals", "fixed", "lambda"},
		{"/v1/sweeps", `{"workloads":["dedup","chain:sidedur=NaN"]}`, "workload", "chain", "sidedur"},
	} {
		got := post400(t, base, tc.path, tc.body)
		if got[tc.component] != tc.name || got["param"] != tc.key {
			t.Errorf("POST %s %s: body = %v, want %s=%q param=%q",
				tc.path, tc.body, got, tc.component, tc.name, tc.key)
		}
	}

	assertNothingQueued(t, c)

	// A registered policy sweeps against CATA and the baseline through
	// /v1/sweeps, parameters included.
	job, err := c.SubmitSweep(ctx, cata.MatrixConfig{
		Workloads: []string{"dedup"},
		Policies:  []cata.Policy{cata.PolicyFIFO, cata.PolicyCATA, cata.Policy("AMTHA:tiebreak=accum")},
		FastCores: []int{8},
		Seeds:     []uint64{7},
		Scale:     0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != cata.JobSucceeded || st.Result == nil || len(st.Result.Results) != 3 || st.Result.Failed != 0 {
		t.Fatalf("policy sweep = %+v", st)
	}
}
