#!/usr/bin/env bash
# Builds the federation benchmark from the checkout's sources and runs it.
# Run from the repository root; every argument is passed through, e.g.
#
#   bash fedbench/run.sh --workload steer --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and per-run scratch data stay under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/fedbench" && go build -o "$build/fedbench" .)
exec "$build/fedbench" "$@"
