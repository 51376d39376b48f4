#!/usr/bin/env bash
# Builds polce-benchmark from source and runs it with the arguments given.
# Run from the repository root, for example:
#
#   bash cmd/polce-benchmark/run.sh --workload andersen-if --seed 1 --seconds 28 --trace 0
#
# The binary, the Go build cache and every temporary file (the serve-mixed
# constraint logs included) stay under .bench_build/ in the repository.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C cmd/polce-benchmark build -o "$build/polce-benchmark" .
exec "$build/polce-benchmark" "$@"
