// Command catad is the CATA simulation daemon: a long-running HTTP/JSON
// service that accepts simulation and sweep jobs, executes them on a
// bounded worker pool with a FIFO admission queue (shedding overload
// with 429s), streams per-job progress over SSE, and serves repeated
// requests for identical specs from a content-addressed result cache.
// Every submitted config's workload, policy and arrival specs are
// validated at admission; a bad one is answered with a 400 naming the
// spec and the offending parameter, before any job is queued.
//
// Endpoints:
//
//	GET    /healthz              liveness/readiness (503 while draining)
//	GET    /metrics              Prometheus text-format telemetry
//	GET    /v1/policies          the policy registry with documentation
//	GET    /v1/workloads         the workload registry
//	POST   /v1/runs              submit one simulation (RunConfig JSON)
//	POST   /v1/sweeps            submit a matrix (MatrixConfig JSON)
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         one job's status and results
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/jobs/{id}/events  SSE progress stream
//	GET    /v1/jobs/{id}/trace   Chrome/Perfetto trace of a traced job
//
// The daemon logs structured JSON records (log/slog) to stderr. Every
// request gets a req_id; job records carry both req_id and job_id, so
// one grep follows a submission from admission through its terminal
// state.
//
// With -debug-addr set, a second listener additionally serves
// net/http/pprof under /debug/pprof/ (plus a /metrics mirror) — opt-in
// so profiling is never exposed on the service address by accident.
//
// SIGINT/SIGTERM trigger graceful shutdown: admission stops, in-flight
// jobs drain up to -drain-timeout, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cata/internal/metrics"
	"cata/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	workers := flag.Int("workers", 2, "concurrently executing jobs")
	queue := flag.Int("queue", 16, "admission queue depth; overflow is shed with 429")
	simPar := flag.Int("j", 0, "per-job simulation parallelism (default GOMAXPROCS/workers)")
	retain := flag.Int("retain", 512, "terminal jobs kept queryable before the oldest are evicted")
	cache := flag.String("cache", "catad.cache.jsonl", "content-addressed result cache path (empty disables caching)")
	drain := flag.Duration("drain-timeout", 60*time.Second, "graceful-shutdown deadline for in-flight jobs")
	debugAddr := flag.String("debug-addr", "", "optional second listen address serving net/http/pprof and /metrics (e.g. 127.0.0.1:6060); empty disables")
	flag.Parse()

	if err := run(*addr, *workers, *queue, *simPar, *retain, *cache, *drain, *debugAddr); err != nil {
		fmt.Fprintf(os.Stderr, "catad: %v\n", err)
		os.Exit(1)
	}
}

// run boots the daemon and blocks until a termination signal has been
// handled: drain jobs first (so SSE streams end naturally and results
// persist to the cache), then close the HTTP listener.
func run(addr string, workers, queue, simPar, retain int, cache string, drainTimeout time.Duration, debugAddr string) error {
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	srv, err := server.New(server.Config{
		Workers:        workers,
		QueueDepth:     queue,
		SimParallelism: simPar,
		RetainJobs:     retain,
		CachePath:      cache,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}

	// The "listening on" line is the startup contract: the e2e test
	// parses the bound address from it (ports may be ephemeral via
	// -addr :0). The message stays formatted — consumers cut at
	// "listening on " and take the next space-delimited token.
	logger.Info(fmt.Sprintf("catad: listening on %s (workers=%d queue=%d cache=%q)",
		ln.Addr(), workers, queue, cache))

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	// The opt-in debug listener: pprof's profile/heap/trace handlers
	// plus a /metrics mirror, on an address you keep off the load
	// balancer. Best-effort lifecycle — it dies with the process.
	var ds *http.Server
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		dm := http.NewServeMux()
		dm.Handle("/metrics", metrics.Handler())
		dm.HandleFunc("/debug/pprof/", pprof.Index)
		dm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ds = &http.Server{Handler: dm}
		logger.Info("debug listener up (pprof + metrics)", "addr", dln.Addr().String())
		go func() { _ = ds.Serve(dln) }()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Info("signal received; draining", "deadline", drainTimeout.String())

	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		logger.Warn("drain incomplete", "err", err.Error())
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown error", "err", err.Error())
	}
	if ds != nil {
		_ = ds.Close()
	}
	<-errCh // Serve has returned http.ErrServerClosed
	// "exited cleanly" is the shutdown contract the e2e test greps for.
	logger.Info("catad: exited cleanly")
	return nil
}
