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

echo "==> fuzz the kNN heap"
# Random push sequences, ties included, for k in 1..40: the hole-moving
# heap must keep the entry order of the swap-based reference, ordered by
# (distance, ID), and end with the k smallest distances offered.
go test -run '^$' -fuzz FuzzHeap -fuzztime 10s ./internal/knn/

echo "==> fuzz the packed gravity kernels"
# The AVX2 P2P and M2P kernels against the Go loops they replace (Leaf,
# applyNode), bit for bit: 0-40 targets and sources on a coarse lattice
# with few IDs, so coincident positions and self-pairs are common, zero
# softening included; a span's masked stores must leave every other
# target's bits alone. Skips on a host without AVX2.
go test -run '^$' -fuzz FuzzPackedKernels -fuzztime 10s ./internal/gravity/

echo "==> fuzz the gravity opening test"
# The AVX2 reach kernel against vec.SphereReaches, decision for decision:
# boxes empty (EmptyBox, or on one axis), points, NaN and ±Inf corners and
# signed zeros, centres on faces and corners, rsq of -1, 0, finite, +Inf
# and NaN, and active lists of 0-40 entries (every masked tail), repeated
# and descending indices included; no bit or byte past the list may be
# written. Skips on a host without AVX2.
go test -run '^$' -fuzz FuzzReach -fuzztime 10s ./internal/gravity/

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
# The kNN pass covers target storage that outlives the build: a rebuild's
# new buckets re-carve their partition's heap arena (TestAttachReuse), and
# calls on disjoint halves of a partition or with changing k never share
# or carry over a heap (TestAttachDisjointSubsets). The native source-major
# call opens what the per-pair contract opens and leaves every heap in the
# same order, with each bucket's cached pruning limit equal to one
# recomputed from its heaps (TestSourceMajorMatchesPerPair); k < 1 is
# refused at Attach (TestAttachRejectsNonPositiveK); on a lattice, where
# candidates tie at the k-th distance, every list equals brute force's
# entry for entry at one to four processes (TestKNNTiesMatchBruteForce).
# The serve pass covers the refresh seam: concurrent waves racing a delta
# Refresh must answer from exactly one tree state, and the stats
# endpoints must stay race-free mid-refresh. It also covers batching: a
# query pool answered alone, in one batch and in shuffled batches gives
# brute force's answers, ties included (TestEngineAnswersIndependentOfBatch),
# and a batch of kNN queries makes exactly the decisions its queries make
# alone (TestKNNWaveCostIndependentOfBatch).
go test -race -short -run 'TestIncremental|TestIncrementalCoverChange|TestDegenerateInputsOneAnswer' .
go test -race -short -run 'TestAttachReuse|TestAttachDisjointSubsets|TestSourceMajorMatchesPerPair|TestAttachRejectsNonPositiveK|TestKNNTiesMatchBruteForce' ./internal/knn/
# Gravity's packed targets: Pack, one VisitSource per node over active
# lists with runs, gaps and repeats, then Unpack must leave the bits the
# per-pair calls leave and open what Open opens (TestPackedMatchesPerPair),
# at θ = 0.6 and at θ = 0, where a node with mass and extent has rsq +Inf
# and opens every bucket but the empty ones
# (TestPackedMatchesPerPair/theta=0); the per-pair Go loops a host without
# AVX2 runs give the golden checksums (TestFallbackMatchesGoldens); and
# the engine runs Pack once before the first visit and Unpack once before
# onDone, parked frames included (TestPackerLifecycle).
go test -race -short -run 'TestPackedMatchesPerPair|TestSourceMajorMatchesPerPair|TestFallbackMatchesGoldens' ./internal/gravity/
go test -race -short -run 'TestPackerLifecycle' ./internal/traverse/
go test -race -short -run 'TestEngineStatsDuringRefresh|TestWavesRaceDeltaRefresh|TestEngineAnswersIndependentOfBatch|TestKNNWaveCostIndependentOfBatch' ./internal/serve/

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

echo "==> runner smoke"
# Every application runner end to end at small scale: gravity on two
# processes, SPH density by both algorithms (kNN with its pressure pass),
# the disk case study at its -quick scale, and every paratreet-bench
# experiment at a tiny scale. A bad -tree must fail with
# a message listing the choices, in both binaries that parse it.
bindir="$tracedir/bin" # under the trace stage's temp dir, removed on exit
go build -o "$bindir/" ./cmd/gravity ./cmd/sph ./cmd/paratreet-bench ./cmd/paratreet-serve
"$bindir/gravity" -n 2000 -iters 1 -procs 2 > /dev/null
"$bindir/sph" -n 2000 -iters 1 > /dev/null
"$bindir/sph" -n 2000 -iters 1 -algo gadget > /dev/null
"$bindir/paratreet-bench" -quick fig12 > /dev/null
# Every paratreet-bench experiment: `all`, plus the three it leaves out.
for exp in all knn serve incremental; do
	"$bindir/paratreet-bench" -quick -n 2000 -iters 1 "$exp" > /dev/null
done
for runner in gravity paratreet-serve; do
	if out="$("$bindir/$runner" -tree bogus 2>&1)"; then
		echo "$runner accepted -tree bogus" >&2
		exit 1
	fi
	case "$out" in
	*"oct|kd|longest"*) ;;
	*)
		echo "$runner -tree bogus does not list the choices: $out" >&2
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
