GO ?= go

.PHONY: all build test vet lint lint-fix-check race bench fuzz ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis: concurrency, quiescence-accounting, and
# hot-path invariants (atomicalign, hotpath, leakcheck, lockcheck,
# lockorder, nilrecv, pendingbalance, purevisit). Pure stdlib; see
# DESIGN.md "Static analysis" for the directive conventions.
lint:
	$(GO) run ./cmd/paratreet-lint ./...

# lint-fix-check is the full hygiene gate for a lint-affecting change:
# formatting (the golden tests and waivers are line-anchored), the
# analyzers' own unit and golden tests, then the repo-wide sweep.
lint-fix-check:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) test ./internal/analysis/...
	$(GO) run ./cmd/paratreet-lint ./...

# Race-mode gate: short mode keeps the differential crossproduct and the
# larger integration runs at smoke scale so the -race schedule finishes
# quickly while still exercising every concurrent code path.
race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Brief fuzz pass over the SFC encode/decode pairs, the particle sort and
# the query edge's request bodies (property seeds run in plain `make test`;
# this additionally explores random inputs). The last target is the one
# scripts/ci.sh fuzzes.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzMortonRoundTrip -fuzztime 10s ./internal/sfc
	$(GO) test -run '^$$' -fuzz FuzzHilbertRoundTrip -fuzztime 10s ./internal/sfc
	$(GO) test -run '^$$' -fuzz FuzzRadixSort -fuzztime 10s ./internal/particle
	$(GO) test -run '^$$' -fuzz FuzzQueryRequest -fuzztime 10s ./internal/serve

ci:
	./scripts/ci.sh
