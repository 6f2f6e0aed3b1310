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
# Static analysis beyond vet, when the tools are installed. This script
# never installs anything, so it runs offline: CI installs the pinned
# versions before `make check` (.github/workflows/ci.yml), and a tool that
# is not on PATH is skipped with a notice. staticcheck's SA (correctness)
# checks are enforcing, govulncheck is advisory — this module has no
# third-party dependencies, so its findings track the toolchain, not this
# code.
if command -v staticcheck >/dev/null 2>&1; then
	echo '== staticcheck -checks SA ./...'
	staticcheck -checks SA ./...
else
	echo "-- staticcheck not installed; skipping"
fi
if command -v govulncheck >/dev/null 2>&1; then
	echo '== govulncheck ./... (advisory)'
	govulncheck ./... || echo "-- govulncheck reported findings (advisory: stdlib vulns track the toolchain)"
else
	echo "-- govulncheck not installed; skipping"
fi
echo '== go test -race ./...'
go test -race ./...
# The invariant linter's own analyzers are concurrency contracts encoded as
# tests; run them by name under the race detector, immune to wildcard drift.
echo '== go test -race (invariant analyzers)'
go test -race -count=1 ./internal/analysis/...
# A flush snapshot's bucket clone shares every stored body with the live
# set: run the tests that write to both sides of a clone, and the core
# snapshot test, repeatedly under the race detector.
echo '== go test -race -count=20 (shared bucket bodies)'
go test -race -count=20 -run '^(TestCloneIsolation|TestBucketImageMatchesReference)$' ./internal/bucket/
go test -race -count=20 -run '^TestSnapshotStableDuringApply$' ./internal/core/
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
# So must it once the top-k heap fills and MaxScore pruning starts: skewed
# lists with k below the candidate count, as a bag and under a matching
# structure.
go test -run '^FuzzRankedPruning$' -fuzz '^FuzzRankedPruning$' -fuzztime 5s ./internal/query/
# Positional verification streams tokens instead of materializing them: the
# scanner must yield exactly the reference tokenizer's tokens, and the
# streaming matcher must decide every check as the reference does.
go test -run '^FuzzScanPositions$' -fuzz '^FuzzScanPositions$' -fuzztime 5s ./internal/lexer/
# The add path scans with the same scanner: Tokenize, collected from it,
# must equal the line-splitting reference under every option (header list,
# minimum length, stop words).
go test -run '^FuzzScanMatchesTokenize$' -fuzz '^FuzzScanMatchesTokenize$' -fuzztime 5s ./internal/lexer/
go test -run '^FuzzMatchText$' -fuzz '^FuzzMatchText$' -fuzztime 5s ./internal/query/
# So does the checkpoint root every Open trusts: arbitrary superblock images
# must open or be refused with an error, never panic.
go test -run '^FuzzSuperblock$' -fuzz '^FuzzSuperblock$' -fuzztime 5s ./internal/core/
# The two logs beside it load or are refused, never panic: a vocabulary log
# writes back as the lines it was read from, and a document log opens to its
# longest prefix of whole records.
go test -run '^FuzzVocabLog$' -fuzz '^FuzzVocabLog$' -fuzztime 5s ./internal/vocab/
go test -run '^FuzzDocLog$' -fuzz '^FuzzDocLog$' -fuzztime 5s ./internal/docstore/
# The deleted list it points to likewise: decode or refuse, and a decoded
# list is duplicate-free and re-encodes to exactly the bytes it was read from.
go test -run '^FuzzDecodeDocSet$' -fuzz '^FuzzDecodeDocSet$' -fuzztime 5s ./internal/core/
# And the long-list directory: decode or refuse, and a decoded directory
# re-encodes to a prefix of the image it was read from.
go test -run '^FuzzDecodeDirectory$' -fuzz '^FuzzDecodeDirectory$' -fuzztime 5s ./internal/directory/
# The chunks it points to are read back on every query: arbitrary images,
# split into chunks, must decode to a strictly ascending list or be refused.
go test -run '^FuzzReadChunks$' -fuzz '^FuzzReadChunks$' -fuzztime 5s ./internal/longlist/
# Bucket images are read back on every open: arbitrary bytes must decode or
# be refused, and what decodes must re-encode to exactly the bytes consumed.
go test -run '^FuzzDecodeBucket$' -fuzz '^FuzzDecodeBucket$' -fuzztime 5s ./internal/bucket/
