#!/usr/bin/env bash
# BENCHMARK.json's command: build the harness from the checkout it is
# run in and hand the driver's flags to it. The binary and Go's build
# cache stay inside the checkout (.bench_build/), so a run reads and
# writes nothing outside it, and the process the driver waits on is the
# benchmark itself. By hand, `go run ./bench` does the same with the
# default cache.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="${GOCACHE:-$PWD/.bench_build/gocache}"
go build -o .bench_build/apuama-bench ./bench
exec .bench_build/apuama-bench "$@"
