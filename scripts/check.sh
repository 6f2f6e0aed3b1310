#!/bin/sh
# Full verification sweep: build every package, vet, and run the whole test
# suite under the race detector. This is what `make check` runs and what a
# change must pass before it lands.
set -eu
cd "$(dirname "$0")/.."

echo '== gofmt -l .'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo '== go build ./...'
go build ./...
echo '== go vet ./...'
go vet ./...
# Vet every package by its full import path too. The wildcard above is the
# normal path; this second pass is derived from `go list ./...` (not a
# hand-maintained list, which drifted as packages were added) so a stray
# exclusion or build-tag surprise in the wildcard can never silently skip a
# package.
echo '== go vet (by name, from go list)'
go list ./... | xargs go vet
echo '== invariant linter (cmd/lint)'
go run ./cmd/lint ./...
# Static analysis beyond vet, when the tools are available. The container
# has no module proxy, so install is attempted (it succeeds in CI, which has
# network) and the checks are skipped with a notice otherwise: staticcheck's
# SA (correctness) checks are enforcing, govulncheck is advisory — this
# module has no third-party dependencies, so its findings track the
# toolchain, not this code.
STATICCHECK_VERSION=2024.1.1
GOVULNCHECK_VERSION=v1.1.3
command -v staticcheck >/dev/null 2>&1 || \
	go install "honnef.co/go/tools/cmd/staticcheck@${STATICCHECK_VERSION}" >/dev/null 2>&1 || \
	echo "-- staticcheck unavailable (no network to install); skipping"
if command -v staticcheck >/dev/null 2>&1; then
	echo '== staticcheck -checks SA ./...'
	staticcheck -checks SA ./...
fi
command -v govulncheck >/dev/null 2>&1 || \
	go install "golang.org/x/vuln/cmd/govulncheck@${GOVULNCHECK_VERSION}" >/dev/null 2>&1 || \
	echo "-- govulncheck unavailable (no network to install); skipping"
if command -v govulncheck >/dev/null 2>&1; then
	echo '== govulncheck ./... (advisory)'
	govulncheck ./... || echo "-- govulncheck reported findings (advisory: stdlib vulns track the toolchain)"
fi
echo '== go test -race ./...'
go test -race ./...
# The invariant linter's own analyzers are concurrency contracts encoded as
# tests; run them by name under the race detector, immune to wildcard drift.
echo '== go test -race (invariant analyzers)'
go test -race -count=1 ./internal/analysis/...
# The maintenance controller is all concurrency — a background loop
# try-locking against flushes and reshards — so its tests run under the race
# detector by name too, immune to wildcard drift.
echo '== go test -race (maintenance controller)'
go test -race -count=1 ./internal/maintain/
# The codec fuzz targets' seed corpora run as unit tests above; give each
# target a short live fuzzing burst too, so `make check` explores beyond the
# seeds (kept brief — CI does the long runs).
echo '== go test -fuzz (seed burst)'
for target in FuzzVarintRoundTrip FuzzGolombRoundTrip FuzzDecodeArbitrary; do
	go test -run "^$target\$" -fuzz "^$target\$" -fuzztime 5s ./internal/postings/
done
# The unified query parser gets the same treatment: its seed corpus runs as
# a unit test above, then a short live burst over the grammar.
go test -run '^FuzzParseQuery$' -fuzz '^FuzzParseQuery$' -fuzztime 5s ./internal/query/
# Ranked execution must equal the term-at-a-time reference bit for bit on
# every fuzzed case: same documents, same order, == scores.
go test -run '^FuzzRankedMatchesReference$' -fuzz '^FuzzRankedMatchesReference$' -fuzztime 5s ./internal/query/
# So does the checkpoint root every Open trusts: arbitrary superblock images
# must open or be refused with an error, never panic.
go test -run '^FuzzSuperblock$' -fuzz '^FuzzSuperblock$' -fuzztime 5s ./internal/core/
