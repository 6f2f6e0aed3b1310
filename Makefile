# Convenience targets; `make check` is the gate a change must pass.

.PHONY: check lint build test race bench

check:
	./scripts/check.sh

# The invariant linter: lockorder, snapshotsafe, ioboundary, metricsname
# and deadexport over the whole module (see internal/analysis and
# DESIGN.md's "Concurrency contracts"). Exits non-zero on any finding.
lint:
	go run ./cmd/lint ./...

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The one benchmark harness: four workloads, end-to-end and per-layer
# metrics as declared in BENCHMARK.json (see internal/bench/README.md).
bench:
	go run ./cmd/bench
