// Package cata is a reproduction of "CATA: Criticality Aware Task
// Acceleration for Multicore Processors" (Castillo et al., IPDPS 2016) as
// a self-contained Go library.
//
// The paper co-designs a task-based runtime system with per-core DVFS: the
// runtime knows which tasks are critical (via static annotations or
// dynamic bottom-level analysis of the task dependence graph) and uses
// that knowledge either to schedule critical tasks onto fast cores (CATS)
// or to reconfigure core frequencies so the cores running critical tasks
// are the fast ones (CATA), under a fixed power budget. A small hardware
// unit (the RSU) removes the software reconfiguration bottleneck.
//
// This package is the public API over a full behavioral simulation stack
// (see DESIGN.md): a picosecond discrete-event engine, a 32-core machine
// model with dual-rail DVFS and ACPI C-states, an analytic power model, a
// cpufreq software stack with lock contention, the runtime system with
// an open policy registry — the paper's scheduling/acceleration
// configurations, a TurboMode comparator, beyond-the-paper extensions
// like AMTHA, and room for more (see PolicyDocs and ParsePolicy) — and
// synthetic generators for the six PARSECSs benchmarks.
//
// Quick start:
//
//	res, err := cata.Run(cata.RunConfig{
//		Workload:  "swaptions",
//		Policy:    cata.PolicyCATA,
//		FastCores: 16,
//	})
//	fmt.Println(res.Makespan, res.Joules)
//
// To regenerate the paper's evaluation (Figures 4 and 5):
//
//	m, err := cata.RunMatrix(cata.MatrixConfig{Policies: cata.AllPolicies()})
//	fmt.Println(m.SpeedupTable())
//	fmt.Println(m.EDPTable())
//
// Large cross-products run through the batch sweep engine
// (internal/batch), reachable as RunBatch and RunMatrixContext: a
// bounded worker pool with context cancellation, per-run error
// isolation, streaming progress, and a content-addressed JSONL result
// cache so an interrupted sweep resumed with BatchOptions.Resume skips
// every completed run. Results are always returned in spec order,
// identical to a sequential execution.
//
// Workloads are specs resolved against a registry (see Workloads): the
// six paper benchmarks, five seeded synthetic DAG generators with
// tunable shape parameters, and importers for externally captured task
// graphs:
//
//	cata.Run(cata.RunConfig{Workload: "layered:seed=7,width=16,depth=32", ...})
//	cata.Run(cata.RunConfig{Workload: "trace:file=capture.json", ...})
//
// Workload, policy and arrival specs share one grammar with typed,
// bounded parameters; RunConfig.Validate checks all three without
// running anything, which is how catad rejects a bad spec at admission.
//
// ExportTrace writes any workload as a replayable JSON trace (replaying
// reproduces the original run exactly), and ExportDOT writes the TDG as
// Graphviz DOT with costs embedded, re-importable as the "dot" workload.
// Custom task graphs are built in code with NewProgram; see
// examples/customworkload. ARCHITECTURE.md maps the internal packages
// and the data flow of one simulated run.
package cata
