# CI and humans invoke the same targets (see .github/workflows/ci.yml).

GO ?= go

# Coverage gate: cover-check fails when total statement coverage drops
# below COVER_FLOOR percent (the tree sits at ~80%; the floor leaves
# headroom for platform-dependent paths). CI runs the same target, so
# the threshold is reproducible locally.
COVER_OUT ?= cover.out
COVER_FLOOR ?= 75.0

# Fuzz-smoke budget, per fuzz target.
FUZZTIME ?= 30s

.PHONY: all build test bench bench-capture bench-check vet fmt fmt-check fma-check smoke opensys-smoke fuzz-smoke cover cover-check lint docs-check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Records the next BENCH_<n>.json in the repo root, the committed bench
# trajectory (see README "Benchmarking"): a JSON array of the full result
# line of a 20-second, seed-42, traced perfbench run of each workload,
# with trace file paths made relative to the checkout. Raw run outputs
# stay in .bench_build/capture.
bench-capture:
	@set -e; mkdir -p .bench_build/capture; \
	n=$$(ls BENCH_*.json | sed 's/[^0-9]//g' | sort -n | tail -n 1); \
	out=BENCH_$$((n + 1)).json; \
	for w in figures dag-scale open-soak service; do \
		bash perfbench/run.sh --workload $$w --seed 42 --seconds 20 --trace 1 > .bench_build/capture/$$w.out; \
	done; \
	{ echo '['; for w in figures dag-scale open-soak service; do \
		grep '^{"workload"' .bench_build/capture/$$w.out; done | \
		sed -e "s|\"$$(pwd)/|\"|g" -e '$$!s/$$/,/'; echo ']'; } > $$out; \
	echo $$out

# One second of each perfbench workload at seed 42. perfbench exits 1
# when any of its own checks fails: an output digest that differs from
# perfbench/digests.json, a paper claim that no longer holds, or a
# served result that is not byte-equal to a direct run. Timings are
# printed, not gated: they are only comparable on one host (see
# perfbench's compare mode).
bench-check:
	@set -e; for w in figures dag-scale open-soak service; do \
		bash perfbench/run.sh --workload $$w --seed 42 --seconds 1; \
	done

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# Fails on any fused multiply-add in the module's arm64 code. The Go
# spec lets a compiler fuse x*y + z into one instruction with a single
# rounding; arm64's does and amd64's does not, so a fused instruction
# makes a result's bits depend on the architecture. An explicit
# conversion, float64(x*y) + z, prevents the fusion. The toolchain
# cross-compiles the arm64 standard library offline.
fma-check:
	@asm=$$(mktemp); trap 'rm -f "$$asm"' EXIT; \
	GOARCH=arm64 $(GO) build -gcflags='cata/...=-S' ./... > "$$asm" 2>&1 || \
		{ GOARCH=arm64 $(GO) build ./... >&2; exit 1; }; \
	n=$$(grep -cE 'FMADD|FMSUB|FNMADD|FNMSUB' "$$asm"); \
	echo "fma-check: $$n fused multiply-add instructions in the module's arm64 code"; \
	if [ "$$n" -ne 0 ]; then grep -E 'FMADD|FMSUB|FNMADD|FNMSUB' "$$asm" >&2; exit 1; fi

# Exercises the catasweep binary path end to end at a tiny scale.
smoke:
	$(GO) test -run TestSweep -count=1 ./cmd/catasweep

# Exercises the open-system traffic path end to end: the seeded
# determinism, overload shedding and report-shape tests, plus one real
# catasim -arrivals run.
opensys-smoke:
	$(GO) test -run 'TestOpen|TestScheduleGolden' -count=1 ./internal/opensys ./internal/exp
	$(GO) run ./cmd/catasim -workload 'forkjoin:width=4,phases=2,dur=50' \
		-policy CATA -fast 8 -cores 8 \
		-arrivals 'poisson:lambda=2000,jobs=20,deadline=5ms,cap=4,window=10ms'

# Runs each fuzz target for a bounded budget: the internal/sim engine
# harness (arena/heap invariants vs a reference engine), the
# internal/spec parser (no panics, canonical-form round trips, registry
# acceptance unchanged by canonicalization), catad's JSON admission
# in internal/server (no panics, admitted configs are encoding fixed
# points) and the internal/tdg DOT reader (no panics, accepted graphs
# have in-range predecessors). go test -fuzz takes one package at a time.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=Fuzz -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=NONE -fuzz=Fuzz -fuzztime=$(FUZZTIME) ./internal/spec
	$(GO) test -run=NONE -fuzz=Fuzz -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run=NONE -fuzz=Fuzz -fuzztime=$(FUZZTIME) ./internal/tdg

# Captures a statement-coverage profile across every package.
cover:
	$(GO) test -coverprofile=$(COVER_OUT) ./...

# Gates total coverage against COVER_FLOOR.
cover-check: cover
	@total=$$($(GO) tool cover -func=$(COVER_OUT) | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 >= f + 0) ? 0 : 1 }' || \
		{ echo "coverage $$total% is below the floor $(COVER_FLOOR)%" >&2; exit 1; }

# Static analysis beyond vet. CI installs pinned staticcheck/govulncheck
# (see .github/workflows/ci.yml); locally they run when installed.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed; skipping (CI runs it pinned)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed; skipping (CI runs it pinned)"; fi

# Fails on broken relative markdown links and on exported identifiers
# missing doc comments (see internal/tools/docscheck).
docs-check:
	$(GO) run ./internal/tools/docscheck

# The local CI mirror: everything the workflow gates, minus the pinned
# tool installs (lint degrades gracefully when staticcheck/govulncheck
# are absent). A short fuzz budget keeps it quick.
ci: fmt-check build fma-check lint test smoke opensys-smoke cover-check docs-check
	$(MAKE) fuzz-smoke FUZZTIME=10s
	$(MAKE) bench-check
