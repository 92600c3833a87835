#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root. Everything the build writes — Go's build cache, its
# temporary files, its telemetry counters, the binary — and every span file
# the benchmark writes goes under .bench_build/, so a run reads and writes
# nothing outside the checkout.
#
#   bash benchmark/run.sh -workload gravity_plummer -seed 1 -seconds 20 -trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	go build -C "$here" -o "$build/paratreet-benchmark" .
cd "$root"
exec "$build/paratreet-benchmark" "$@"
