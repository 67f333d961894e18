#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the Go
# toolchain writes (build cache, temporaries, the binary) under .bench_build
# in the checkout. Arguments are passed to the benchmark unchanged:
#
#   bash bench/run.sh --workload smallkv --seed 7 --seconds 20 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

go build -C "$root/bench" -o "$build/pmemcpy-bench" . >&2
cd "$root"
exec "$build/pmemcpy-bench" "$@"
