#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload; every argument
# is passed through (--workload, --seed, --seconds, --trace, --trace-file).
# Run from the repository root:
#
#   bash bench/run.sh --workload bulk-54k --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the service's temporary stores
# all live under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
