#!/usr/bin/env bash
# Builds the itsperf benchmark from the checkout's sources and runs it with
# the given arguments. Run from the root of the repository:
#
#	bash itsperf/run.sh --workload paper-its-1c --seed 1 --seconds 20 --trace 0
#
# The Go build cache and the binary live under .bench_build/ in the
# checkout, so nothing is read from or written to the user's caches.
set -euo pipefail

build="${PWD}/.bench_build"
mkdir -p "${build}/go-cache" "${build}/go-tmp"
export GOCACHE="${build}/go-cache"
export GOTMPDIR="${build}/go-tmp"
export GOFLAGS=-mod=vendor
export GOTOOLCHAIN=local
export CGO_ENABLED=0

go build -o "${build}/itsperf" ./itsperf
exec "${build}/itsperf" "$@"
