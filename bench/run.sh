#!/usr/bin/env bash
# Builds the binaries under test and the benchmark into .bench_build/ (a
# no-op once cached) and runs the benchmark with the given arguments, from
# the root of the checkout:
#
#   bash bench/run.sh --workload serve-emit --seed 7 --seconds 20 --trace 0
#
# Everything the toolchain writes stays inside the checkout: the Go build
# cache is pointed at .bench_build/gocache. Build time is outside every
# metric; the benchmark's set-up clock starts when it spawns the servers.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/bin/" ./cmd/turboflux-serve ./cmd/turboflux-shard
go build -C bench -o "$build/bin/turboflux-bench-e2e" .

exec "$build/bin/turboflux-bench-e2e" -bin "$build/bin" -work "$build/run" "$@"
