package exp

import (
	"time"

	"cata/internal/metrics"
	"cata/internal/sim"
)

// The simulation layer's telemetry, aggregated across every Run in the
// process and exposed through catad's GET /metrics. Events/sec is
// derived at scrape time from the two counters, so it reflects the
// lifetime average rather than a sampling window.
var (
	mSimRuns = metrics.NewCounter("cata_sim_runs_total",
		"Simulations completed.")
	mSimEvents = metrics.NewCounter("cata_sim_events_total",
		"Discrete events fired by the simulation engine.")
	mSimWall = metrics.NewCounter("cata_sim_wall_seconds_total",
		"Wall-clock seconds spent inside the simulator.")
	_ = metrics.NewGaugeFunc("cata_sim_events_per_sec",
		"Lifetime average engine throughput: events fired / wall seconds simulating.",
		func() float64 {
			w := mSimWall.Value()
			if w <= 0 {
				return 0
			}
			return mSimEvents.Value() / w
		})
	mTransitions = metrics.NewCounter("cata_dvfs_transitions_total",
		"Physical V/f transitions performed across all simulations.")
	mAccelGranted = metrics.NewCounter("cata_accel_granted_total",
		"Core accelerations granted by the reconfiguration layer (RSM/RSU).")
	mAccelDenied = metrics.NewCounter("cata_accel_denied_total",
		"Task starts that ran non-accelerated because the power budget was exhausted.")
	// Per-run values are histograms, not gauges: a sweep completes runs
	// in parallel, so a "last run" gauge would hold whichever finished
	// last.
	mBudgetUtil = metrics.NewHistogram("cata_power_budget_utilization",
		"Per-run time-averaged accelerated cores / budget, in [0,1], of runs that accelerate.",
		[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1})

	// Open-system traffic telemetry: per-job observations arrive live
	// from the simulation's admission and completion callbacks, the
	// per-run aggregates from observeRun.
	mOpenJobs = metrics.NewCounter("cata_opensys_jobs_total",
		"Open-system job arrivals across all traffic runs (admitted + shed).")
	mOpenShed = metrics.NewCounter("cata_opensys_shed_total",
		"Open-system arrivals dropped by the in-system cap.")
	mOpenMissed = metrics.NewCounter("cata_opensys_deadline_missed_total",
		"Open-system jobs that completed past their deadline.")
	mOpenPeak = metrics.NewHistogram("cata_opensys_peak_in_system",
		"Per-run peak concurrently in-system jobs of open-system runs.",
		metrics.ExpBuckets(1, 2, 12))
	mOpenP99 = metrics.NewHistogram("cata_opensys_p99_response_seconds",
		"Per-run 99th-percentile job response time (simulated) of open-system runs.",
		metrics.ExpBuckets(1e-6, 10, 8))
	mOpenResponse = metrics.NewHistogram("cata_opensys_response_seconds",
		"Per-job response times (simulated) across all open-system runs.",
		metrics.ExpBuckets(1e-6, 10, 8))
)

// observeOpenShed streams one shed arrival into the process metrics.
func observeOpenShed() { mOpenShed.Inc() }

// observeOpenResponse streams one job completion's response time.
func observeOpenResponse(resp sim.Time) {
	mOpenResponse.Observe(resp.Seconds())
}

// observeRun folds one completed simulation into the process metrics.
func observeRun(m Measurement, eventsFired uint64, elapsed time.Duration) {
	mSimRuns.Inc()
	mSimEvents.Add(float64(eventsFired))
	mSimWall.Add(elapsed.Seconds())
	mTransitions.Add(float64(m.Transitions))
	mAccelGranted.Add(float64(m.AccelsGranted))
	mAccelDenied.Add(float64(m.AccelsDenied))
	if m.BudgetUtilization > 0 {
		mBudgetUtil.Observe(m.BudgetUtilization)
	}
	if m.Open != nil {
		mOpenJobs.Add(float64(m.Open.JobsArrived))
		mOpenMissed.Add(float64(m.Open.DeadlineMissed))
		mOpenPeak.Observe(float64(m.Open.PeakInSystem))
		mOpenP99.Observe(m.Open.P99.Seconds())
	}
}
