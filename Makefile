GO ?= go

.PHONY: all build test vet lint race bench fuzz ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis: hot-path discipline, guarded-field
# locking, and quiescence accounting (hotpath, lockcheck,
# pendingbalance). Pure stdlib; see DESIGN.md "Static analysis" for the
# directive conventions.
lint:
	$(GO) run ./cmd/paratreet-lint ./...

# Race-mode gate: short mode keeps the differential crossproduct and the
# larger integration runs at smoke scale so the -race schedule finishes
# quickly while still exercising every concurrent code path.
race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Brief fuzz pass over the SFC encode/decode pairs, the particle sort, the
# kNN heap and the query edge's request bodies (property seeds run in
# plain `make test`; this additionally explores random inputs). The last
# two targets are the ones scripts/ci.sh fuzzes.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzMortonRoundTrip -fuzztime 10s ./internal/sfc
	$(GO) test -run '^$$' -fuzz FuzzHilbertRoundTrip -fuzztime 10s ./internal/sfc
	$(GO) test -run '^$$' -fuzz FuzzRadixSort -fuzztime 10s ./internal/particle
	$(GO) test -run '^$$' -fuzz FuzzHeap -fuzztime 10s ./internal/knn
	$(GO) test -run '^$$' -fuzz FuzzQueryRequest -fuzztime 10s ./internal/serve

ci:
	./scripts/ci.sh
