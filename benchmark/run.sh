#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ inside the checkout (the toolchain's build cache and
# its config directory included, so nothing is written outside it) and
# runs it with the arguments given.
# Run from the repository root. By hand, `go run ./benchmark ...` does the
# same with the toolchain's default cache.
set -euo pipefail
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the program under test is not here" >&2
	exit 1
fi
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# A fresh config directory makes the go command start its detached
# telemetry child, which would outlive this script; the mode file turns
# telemetry off before the first go invocation, so no child is started.
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/p4auth-benchmark" ./benchmark
exec "$build/p4auth-benchmark" "$@"
