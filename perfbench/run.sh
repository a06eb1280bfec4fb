#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload figures --seed 42 --seconds 10 --trace 0
#   bash perfbench/run.sh compare runs/parent runs/change
#
# Everything the build and the run leave behind (Go build cache, binary,
# service cache files, traces, profiles) goes under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout. The toolchain is never
# downloaded and no module is fetched.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"
export PPROF_TMPDIR="$out/pprof"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
mkdir -p "$TMPDIR"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -work "$out/work" "$@"
