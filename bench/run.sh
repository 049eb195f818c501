#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash bench/run.sh --workload churn-ip --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the binary and the admin sockets live under .bench_build/,
# traced runs write spans and CPU profiles to bench/out/.
set -euo pipefail

build=.bench_build
mkdir -p "$build/home"
abs=$(cd "$build" && pwd)
export GOCACHE="$abs/gocache" GOPATH="$abs/gopath" HOME="$abs/home"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOTELEMETRY=off

go -C bench build -o "$abs/bench" .
exec "$abs/bench" -out bench/out -sockdir "$build" "$@"
