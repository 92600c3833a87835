#!/bin/sh
# CI gate: build, vet, the repo's own static analyzers, full tests, then
# the race-mode pass in short mode. Run from the repository root (or via
# `make ci`). Every stage is fatal: a vet or lint finding fails the gate.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build"
go build ./...

echo "==> go vet"
go vet ./...

echo "==> gofmt"
# gofmt gate: the lint golden tests and waiver comments are line-anchored,
# so formatting drift is a correctness hazard, not just style.
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> paratreet-lint"
# The loader expands ./... over the whole module — internal/..., cmd/...,
# examples/, scripts/, and the root package — so every package faces the
# eight analyzers (see `paratreet-lint -list`), waiver hygiene included.
go run ./cmd/paratreet-lint ./internal/... ./cmd/... ./examples/... ./scripts/... .

echo "==> go test"
go test ./...

echo "==> benchmark harness guard tests"
# benchmark/ is its own module (it replaces paratreet with the checkout
# around it), so the root `go test ./...` never compiles it. Its guard
# tests build every workload against internal/'s current signatures: the
# cheapest way to learn that a change broke the frozen benchmark.
(cd benchmark && go test ./...)

echo "==> go test -race -short"
go test -race -short ./...

echo "==> fuzz the query edge"
# Arbitrary body bytes at /query/{knn,range,probe}: only a decodable 200
# (count == len(hits), finite dists), a 400, or a 413 may come back — a
# 504 only when the body set its own timeout_ms. The seed corpus already
# ran under go test above; this explores past it.
go test -run '^$' -fuzz FuzzQueryRequest -fuzztime 10s ./internal/serve/

echo "==> rt wake protocol (lost-wakeup stress)"
# Workers park on a channel instead of polling, so a push whose wake is
# lost strands its task forever. Full-length rounds (the -short pass above
# runs a tenth) of producers racing Submit/SubmitTo/Send into parked
# workers at GOMAXPROCS 1 and 2, plus steal-by-wake, Stop with everyone
# parked, and idle accounting across a park.
go test -race -count=1 -run 'TestWake|TestSubmitPrefersParkedWorker|TestStopWithAllWorkersParked|TestIdleAccruesAcrossPark' ./internal/rt/

echo "==> chaos (differential fault injection)"
# The fault-injection differential gate: gravity and kNN results must be
# unchanged by dropped/duplicated/jittered delivery (fixed seed inside the
# tests), with the race detector watching the retry and drop-audit paths.
go test -race -short -run 'TestChaos' .

echo "==> incremental differential gate"
# The incremental-build differential gate: an Incremental simulation must
# stay bit-identical to a from-scratch one through multi-step drift
# workloads — trees, buckets, float Data, and traversal answers — across
# the supported decomp/policy matrix, including the faulted variant
# (TestIncrementalFaultedMatchesScratch) where every cache fetch rides an
# unreliable link, in whatever order the array arrives
# (TestIncrementalInputOrder: permuted, and as Gather leaves it), and
# through a step that changes the subtree cover
# (TestIncrementalCoverChange, TestIncrementalCoverChangeFaulted: the
# surviving subtrees are patched, only the new ones built).
# TestDegenerateInputsOneAnswer holds serial, parallel and patched builds
# to one answer on coincident, collinear, on-plane and stacked particles.
# The serve pass covers the refresh seam: concurrent waves racing a delta
# Refresh must answer from exactly one tree state, and the stats
# endpoints must stay race-free mid-refresh.
go test -race -short -run 'TestIncremental|TestIncrementalCoverChange|TestDegenerateInputsOneAnswer' .
go test -race -short -run 'TestEngineStatsDuringRefresh|TestWavesRaceDeltaRefresh' ./internal/serve/

echo "==> trace pipeline"
# End-to-end timeline check: a quick traced kNN run must produce a Chrome
# trace the analyzer accepts (paratreet-trace exits nonzero on malformed
# or empty traces), with every report section rendered.
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/paratreet-bench knn -quick -trace 65536 \
	-trace-out "$tracedir/trace.json" -metrics-out "$tracedir/metrics.json" > /dev/null
go run ./cmd/paratreet-trace validate "$tracedir/trace.json"
report="$(go run ./cmd/paratreet-trace report "$tracedir/trace.json")"
for section in summary gantt phases spans "fetch rtt" "latency quantiles" "critical path"; do
	case "$report" in
	*"$section"*) ;;
	*)
		echo "trace report missing section: $section" >&2
		exit 1
		;;
	esac
done

echo "==> faulted trace pipeline"
# Same pipeline under injected faults: the trace must record the drop and
# retry instants, proving the fault events flow into the exporter.
go run ./cmd/paratreet-bench knn -quick -faults drop=0.05,dup=0.05,seed=7 \
	-trace-out "$tracedir/faulted.json" -metrics-out "$tracedir/faulted-metrics.json" > /dev/null
go run ./cmd/paratreet-trace validate "$tracedir/faulted.json"
faulted="$(go run ./cmd/paratreet-trace report "$tracedir/faulted.json")"
for kind in drop retry; do
	case "$faulted" in
	*"$kind"*) ;;
	*)
		echo "faulted trace report missing $kind events" >&2
		exit 1
		;;
	esac
done

echo "==> serve smoke"
# End-to-end daemon check: build paratreet-serve, start it on an
# ephemeral port, answer kNN and range queries over HTTP, then verify a
# clean SIGTERM drain (exit 0, drain banner).
go run ./scripts

echo "==> benchmark smoke"
# One short quick-scale run of every benchmark/ workload: each correctness
# oracle must hold (failed == 0) and every end-to-end metric must be
# measured, or run.sh exits nonzero. Its timings are never compared; a
# timing claim rests on the alternated parent/change pairs that
# benchmark/README.md prescribes.
bash benchmark/run.sh -quick -seconds 2

echo "CI gate passed."
