#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it; BENCHMARK.json's
# command. Everything the build leaves behind (Go build cache included)
# stays inside the checkout, under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
