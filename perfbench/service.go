package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cata"
	"cata/internal/server"
	"cata/internal/workloads"
)

// service is catad traffic over loopback TCP: an in-process
// server.New on a result cache pre-populated with real records, driven
// through cata.ServiceClient. Each request is SubmitRun + Wait for one
// small configuration; half repeat a pre-populated configuration (a
// cache read), half are fresh (a simulation, then an append to the
// cache). Phase A is an open loop at a fixed rate, each request timed
// from when it was due; phase B is a closed loop of one client per
// worker. Simulations are sub-millisecond here, so server, jobs, batch
// and JSON dominate, and reads and writes meet in one cache layer.
type service struct {
	records int           // pre-populated cache records
	rate    float64       // phase A requests per second
	roundA  time.Duration // phase A round length
	roundB  time.Duration // phase B round length
	warmFor time.Duration // open-loop warm-up length

	cachePath string
	prepop    []cata.RunConfig
	digest    string

	srv       *server.Server
	hs        *http.Server
	served    chan error
	transport *http.Transport
	client    *cata.ServiceClient

	next atomic.Int64 // request counter, unique across the run

	mu   sync.Mutex
	done []request // every request served, for verification
}

func newService(tiny bool) *service {
	if tiny {
		return &service{records: 60, rate: 100, roundA: 300 * time.Millisecond, roundB: 200 * time.Millisecond, warmFor: 100 * time.Millisecond}
	}
	return &service{records: 4000, rate: 250, roundA: 1500 * time.Millisecond, roundB: 500 * time.Millisecond, warmFor: 500 * time.Millisecond}
}

// The small configurations the service serves.
var (
	servicePolicies = []cata.Policy{cata.PolicyFIFO, cata.PolicyCATA, cata.PolicyCATARSU}
	serviceFast     = []int{8, 16, 24}
)

const serviceScale = 0.1

// requestTimeout bounds one request; a request still running past it has
// hung, which the run reports as a failure.
const requestTimeout = 30 * time.Second

// The open-loop generator's wake-up margins (see waitUntil).
const (
	wakeEarly = 1500 * time.Microsecond
	spinBelow = 80 * time.Microsecond
)

func smallConfig(rng *rand.Rand) cata.RunConfig {
	ws := workloads.Names()
	return cata.RunConfig{
		Workload:  ws[rng.IntN(len(ws))],
		Policy:    servicePolicies[rng.IntN(len(servicePolicies))],
		FastCores: serviceFast[rng.IntN(len(serviceFast))],
		Seed:      rng.Uint64() | 1, // a zero seed would mean the default
		Scale:     serviceScale,
	}
}

// requestConfig returns request k's configuration: a seeded coin picks
// a repeat of a pre-populated configuration or a fresh one.
func (s *service) requestConfig(seed uint64, k int64) (cata.RunConfig, bool) {
	rng := rand.New(rand.NewPCG(seed, uint64(k)|1<<63))
	if rng.IntN(2) == 0 {
		return s.prepop[rng.IntN(len(s.prepop))], true
	}
	return smallConfig(rng), false
}

// prepare generates the pre-populated records through the batch engine
// into the cache file the server will open, and digests them.
func (s *service) prepare(e *env) error {
	s.cachePath = filepath.Join(e.dir, "cache.jsonl")
	s.prepop = make([]cata.RunConfig, s.records)
	for j := range s.prepop {
		s.prepop[j] = smallConfig(rand.New(rand.NewPCG(e.seed, uint64(j))))
	}
	rs, err := cata.RunBatch(context.Background(), s.prepop, cata.BatchOptions{Parallelism: e.workers, CachePath: s.cachePath, Resume: true})
	if err != nil {
		return err
	}
	var sum []byte
	for i, r := range rs {
		if r.Err != nil {
			return fmt.Errorf("pre-populating %+v: %w", s.prepop[i], r.Err)
		}
		b, err := json.Marshal(r.Result)
		if err != nil {
			return err
		}
		sum = append(append(sum, b...), '\n')
	}
	s.digest = digestOf(sum)
	return nil
}

// setup starts the daemon on its cache, listens on loopback and waits
// for the first /healthz.
func (s *service) setup(e *env) error {
	srv, err := server.New(server.Config{Workers: e.workers, CachePath: s.cachePath})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	s.srv = srv
	s.hs = &http.Server{Handler: srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.transport = &http.Transport{MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers}
	s.client = cata.NewServiceClient("http://"+ln.Addr().String(), &http.Client{Transport: s.transport})
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if _, err := s.client.Health(ctx); err != nil {
		return errors.Join(err, s.teardown())
	}
	return nil
}

// teardown drains the daemon, stops the listener, waits for it to
// return and closes the cache.
func (s *service) teardown() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	err := s.srv.Drain(ctx)
	err = errors.Join(err, s.hs.Shutdown(ctx))
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, s.srv.Close())
	s.transport.CloseIdleConnections()
	s.srv = nil
	return err
}

// request is one served request, reduced to what the run checks and
// reports.
type request struct {
	k        int64
	cfg      cata.RunConfig
	hit      bool // a repeat of a pre-populated configuration
	due      time.Time
	sent     time.Time // POST started
	admitted time.Time // POST answered
	finished time.Time // Wait returned the terminal status
	job      string
	// The job's own timestamps, from the daemon.
	submitted, started, ended time.Time
	err                       error
	raw                       []byte            // the served Result as JSON; fold drops it once used
	sum                       [sha256.Size]byte // SHA-256 of raw, which verify compares
	cached                    bool
	tasks, inversions         int64
	reconfigPct               float64
}

// do sends request k and waits for its result.
func (s *service) do(seed uint64, k int64, due time.Time) request {
	cfg, hit := s.requestConfig(seed, k)
	rq := request{k: k, cfg: cfg, hit: hit, due: due}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	rq.sent = time.Now()
	st, err := s.client.SubmitRun(ctx, cfg)
	rq.admitted = time.Now()
	if err == nil {
		st, err = s.client.Wait(ctx, st.ID)
	}
	rq.finished = time.Now()
	rq.job, rq.submitted, rq.started, rq.ended = st.ID, st.Submitted, st.Started, st.Finished
	switch {
	case err != nil:
	case st.State != cata.JobSucceeded:
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	case st.Result == nil || len(st.Result.Results) != 1 || st.Result.Results[0].Result == nil:
		err = fmt.Errorf("job %s carries no result", st.ID)
	default:
		o := st.Result.Results[0]
		rq.cached = o.Cached
		rq.tasks, rq.inversions, rq.reconfigPct = o.Result.TasksRun, o.Result.Inversions, o.Result.ReconfigOverheadPct
		rq.raw, err = json.Marshal(o.Result)
		rq.sum = sha256.Sum256(rq.raw)
	}
	rq.err = err
	return rq
}

// waitUntil returns at due. The runtime fires timers up to about a
// millisecond late, so it sleeps on a timer only until wakeEarly before
// due, then naps in short nanosleeps, which give the CPU back to the
// daemon yet wake within tens of microseconds, and yield-spins through
// the last spinBelow.
func waitUntil(due time.Time) {
	if d := time.Until(due) - wakeEarly; d > 0 {
		time.Sleep(d)
	}
	for {
		rem := time.Until(due)
		switch {
		case rem <= 0:
			return
		case rem > spinBelow:
			ts := syscall.NsecToTimespec(int64(rem - spinBelow))
			_ = syscall.Nanosleep(&ts, nil) // an interrupted nap only ends early
		default:
			runtime.Gosched()
		}
	}
}

// openRound sends requests at the fixed rate for d: a generator wakes at
// each due time and queues the request for the first free sender, so a
// stall delays every later request and shows in their latencies, timed
// from when each was due. The round keeps how late the generator woke,
// which says whether it kept the schedule.
func (s *service) openRound(e *env, d time.Duration, tr *tracer, ls *layerStats) round {
	n := max(1, int(d.Seconds()*s.rate))
	interval := time.Duration(float64(time.Second) / s.rate)
	type ticket struct {
		k   int64
		due time.Time
	}
	// Room for every request of the round, so that busy senders never
	// hold the generator back: the schedule stays open, and a request's
	// wait for a sender counts in its latency, not in the lateness.
	tickets := make(chan ticket, n)
	var mu sync.Mutex
	var reqs []request
	var wg sync.WaitGroup
	for i := 0; i < e.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tickets {
				rq := s.do(e.seed, t.k, t.due)
				mu.Lock()
				reqs = append(reqs, rq)
				mu.Unlock()
			}
		}()
	}
	start := time.Now().Add(interval)
	late := make([]time.Duration, n)
	for i := range late {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		late[i] = time.Since(due)
		tickets <- ticket{s.next.Add(1), due}
	}
	close(tickets)
	wg.Wait()
	rd := s.fold(reqs, latencyRound, tr, ls)
	rd.elapsed = time.Since(start)
	rd.late = late
	return rd
}

// closedRound runs one client per worker back to back for d.
func (s *service) closedRound(e *env, d time.Duration, tr *tracer, ls *layerStats) round {
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var reqs []request
	var wg sync.WaitGroup
	for i := 0; i < e.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				rq := s.do(e.seed, s.next.Add(1), time.Now())
				mu.Lock()
				reqs = append(reqs, rq)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rd := s.fold(reqs, throughputRound, tr, ls)
	rd.elapsed = time.Since(start)
	return rd
}

// fold turns a round's requests into its samples, records their spans
// when traced, and keeps them for verification.
func (s *service) fold(reqs []request, kind roundKind, tr *tracer, ls *layerStats) round {
	rd := round{kind: kind, ops: len(reqs)}
	for _, rq := range reqs {
		if rq.err != nil {
			rd.failed++
			rd.problems = append(rd.problems, fmt.Sprintf("service request %d (%+v): %v", rq.k, rq.cfg, rq.err))
			continue
		}
		rd.lat = append(rd.lat, rq.finished.Sub(rq.due))
		rd.tasks += rq.tasks
		if tr != nil {
			root := tr.record("request", 0, rq.job, rq.sent, rq.finished)
			tr.record("server.admit", root, rq.job, rq.sent, rq.admitted)
			tr.record("jobs.queue", root, rq.job, rq.submitted, rq.started)
			tr.record("jobs.run", root, rq.job, rq.started, rq.ended)
			tr.record("server.notify", root, rq.job, rq.ended, rq.finished)
		}
		if !rq.cached {
			ls.simulated(rq.tasks)
		}
		ls.addRun(rq.tasks, rq.inversions, rq.reconfigPct, rq.cfg, json.RawMessage(rq.raw))
	}
	// Keeping every served document for verify would grow the heap with
	// throughput and move peak_rss_mb and GC time with it; the digest is
	// enough to check byte-equality.
	for i := range reqs {
		reqs[i].raw = nil
	}
	s.mu.Lock()
	s.done = append(s.done, reqs...)
	s.mu.Unlock()
	return rd
}

func (s *service) warm(e *env) (string, error) {
	rd := s.openRound(e, s.warmFor, nil, nil)
	if rd.failed > 0 {
		return "", fmt.Errorf("%d of %d warm-up requests failed: %v", rd.failed, rd.ops, rd.problems)
	}
	return s.digest, nil
}

func (s *service) measure(e *env, budget time.Duration, tr *tracer, ls *layerStats) (pass, error) {
	// Most of the budget goes to the open loop: its tail moves with the
	// host's stalls, and more rounds steady the median over them.
	nA := max(2, int(0.7*budget.Seconds()/s.roundA.Seconds()))
	nB := max(2, int(0.3*budget.Seconds()/s.roundB.Seconds()))
	var p pass
	clock := roundClock{par: e.workers}
	for i := 0; i < nA+nB; i++ {
		rd, err := clock.run(func() (round, error) {
			if i < nA {
				return s.openRound(e, s.roundA, tr, ls), nil
			}
			return s.closedRound(e, s.roundB, tr, ls), nil
		})
		if err != nil {
			return p, err
		}
		p.rounds = append(p.rounds, rd)
	}
	if ls == nil {
		return p, nil
	}
	// The layers behind a request, timed on the served workloads
	// themselves, outside the traffic.
	root := tr.begin("layers", 0, "")
	defer tr.end(root)
	for i, w := range workloads.Names() {
		for k := uint64(0); k < 8; k++ {
			if err := ls.build(tr, root, w, e.seed+uint64(i)*8+k, serviceScale); err != nil {
				return p, err
			}
		}
	}
	ls.detail = serviceDetail(tr.snapshot())
	return p, nil
}

// serviceDetail returns the traced requests' layer latencies in ms.
func serviceDetail(spans []span) map[string]float64 {
	by := map[string][]time.Duration{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s.dur())
	}
	return map[string]float64{
		"server.admit_ms_p50":    ms(percentile(by["server.admit"], 50)),
		"server.admit_ms_p99":    ms(percentile(by["server.admit"], 99)),
		"jobs.queue_wait_ms_p50": ms(percentile(by["jobs.queue"], 50)),
		"jobs.queue_wait_ms_p99": ms(percentile(by["jobs.queue"], 99)),
		"jobs.run_ms_p50":        ms(percentile(by["jobs.run"], 50)),
		"jobs.run_ms_p99":        ms(percentile(by["jobs.run"], 99)),
		"server.notify_ms_p50":   ms(percentile(by["server.notify"], 50)),
		"server.notify_ms_p99":   ms(percentile(by["server.notify"], 99)),
	}
}

// verify re-runs every distinct served configuration directly through
// cata.Run and requires each served result to be byte-equal to it;
// repeats of pre-populated configurations must have come from the
// cache, fresh ones must not have.
func (s *service) verify(e *env, ls *layerStats) ([]string, int, error) {
	groups := map[string][]request{}
	var order []string
	for _, rq := range s.done {
		if rq.err != nil {
			continue
		}
		key, err := json.Marshal(rq.cfg)
		if err != nil {
			return nil, 0, err
		}
		if _, ok := groups[string(key)]; !ok {
			order = append(order, string(key))
		}
		groups[string(key)] = append(groups[string(key)], rq)
	}

	var mu sync.Mutex
	var problems []string
	failed := 0
	fail := func(n int, format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		failed += n
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	var host atomic.Int64
	probe := ls.probe()
	keys := make(chan string)
	var wg sync.WaitGroup
	for i := 0; i < e.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range keys {
				g := groups[key]
				start := time.Now()
				res, err := cata.Run(g[0].cfg)
				host.Add(int64(time.Since(start)))
				if err != nil {
					fail(len(g), "service: direct run of %+v: %v", g[0].cfg, err)
					continue
				}
				b, err := json.Marshal(res)
				if err != nil {
					fail(len(g), "service: %v", err)
					continue
				}
				want := sha256.Sum256(b)
				for _, rq := range g {
					switch {
					case rq.sum != want:
						fail(1, "service: request %d served a result with SHA-256 %x, a direct run of %+v gives %x", rq.k, rq.sum, rq.cfg, want)
					case rq.hit && !rq.cached:
						fail(1, "service: request %d repeated a pre-populated config but was simulated again", rq.k)
					case !rq.hit && rq.cached:
						fail(1, "service: request %d was fresh but was served from the cache", rq.k)
					}
				}
			}
		}()
	}
	for _, key := range order {
		keys <- key
	}
	close(keys)
	wg.Wait()
	probe.done(len(order), time.Duration(host.Load()), 0)
	return problems, failed, nil
}
