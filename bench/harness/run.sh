#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/harness/run.sh --workload chaos --seed 3 --seconds 10 --trace 0
#
# Run from the repository root. The binary, the Go build cache and the
# toolchain's scratch files all stay under .bench_build/ in the checkout,
# so a run reads and writes nothing outside it.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOENV=off

go build -o "$build/harness" ./bench/harness
exec "$build/harness" "$@"
