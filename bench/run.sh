#!/usr/bin/env bash
# The gate's entry point (BENCHMARK.json "command"): builds the benchmark from
# source and runs it, keeping every file the build and the run write — Go's
# build cache included — under .bench_build/ in the checkout. By hand,
# `go run ./bench` does the same with your own build cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
