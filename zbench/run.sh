#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it from the checkout root with every argument passed through:
#
#   bash zbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Build cache, temporary files and the binary stay under .bench_build/
# in the checkout, so the run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME moves the go command's telemetry counters into the
# checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
go -C "$root/zbench" build -o "$build/zbench" .
cd "$root"
exec "$build/zbench" "$@"
