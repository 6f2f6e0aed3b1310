// Package route decides which shard of a sharded engine owns a document.
//
// Routing is a contract, not a convenience: the router chosen when an index
// is created determines where every document's postings live on disk, so the
// same router (kind, shard count and parameters) must be used for the life
// of the index — it is recorded in the index manifest and only an explicit
// reshard may change it. All routers are pure functions of the document
// identifier: the assignment never depends on insertion order, shard state
// or process lifetime.
//
// Three routers are provided:
//
//   - Hash spreads documents uniformly with the SplitMix64 finalizer — the
//     default, best for load balance when queries touch the whole corpus.
//   - Range keeps contiguous runs of document identifiers together,
//     assigning spans of DefaultRangeSpan consecutive documents to shards
//     round-robin.
//     On time-partitioned corpora (the paper's News dataset, where a day's
//     documents arrive together) hash routing defeats locality by
//     scattering each day over every shard; range routing keeps a day's
//     postings clustered, at the price of rougher short-term balance.
//   - RoundRobin alternates single documents over the shards — perfectly
//     balanced ingest, no locality; useful as a worst-case locality
//     baseline and for uniform tiny-document streams.
package route

import (
	"fmt"

	"dualindex/internal/postings"
)

// Router kind names, as recorded in the index manifest and accepted by
// Options.Routing.
const (
	KindHash       = "hash"
	KindRange      = "range"
	KindRoundRobin = "round-robin"
)

// DefaultRangeSpan is the Range router's span: 1024 consecutive documents
// per shard assignment, a compromise between locality (a batch of documents
// lands mostly on one shard) and balance (spans rotate through the shards
// quickly).
const DefaultRangeSpan = 1024

// A Router maps every document identifier to the index of the shard that
// owns it, in [0, Shards()). Implementations are small value types, safe
// for concurrent use.
type Router interface {
	// Shard returns the owning shard's index for doc.
	Shard(doc postings.DocID) int
	// Shards reports the shard count the router was built for.
	Shards() int
	// Kind reports the router's registered name (KindHash, KindRange or
	// KindRoundRobin), as recorded in the index manifest.
	Kind() string
}

// New builds the named router for n shards. kind "" means KindHash, the
// default.
func New(kind string, n int) (Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("route: shard count %d < 1", n)
	}
	switch kind {
	case KindHash, "":
		return Hash{N: n}, nil
	case KindRange:
		return Range{N: n}, nil
	case KindRoundRobin:
		return RoundRobin{N: n}, nil
	}
	return nil, fmt.Errorf("route: unknown routing %q (want %q, %q or %q)",
		kind, KindHash, KindRange, KindRoundRobin)
}

// Hash routes by a stable integer hash of the document identifier — the
// SplitMix64 finalizer, whose output for a given identifier and shard count
// is pinned by golden-value tests: changing it would strand every document
// of every existing hash-routed index on the wrong shard.
type Hash struct{ N int }

// Shard implements Router.
func (h Hash) Shard(doc postings.DocID) int {
	if h.N <= 1 {
		return 0
	}
	x := uint64(doc)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(h.N))
}

// Shards implements Router.
func (h Hash) Shards() int { return h.N }

// Kind implements Router.
func (h Hash) Kind() string { return KindHash }

// Range assigns contiguous spans of DefaultRangeSpan consecutive document
// identifiers to shards round-robin: documents 1..1024 land on shard 0, the
// next 1024 on shard 1, and so on, wrapping. Identifiers are assigned in
// arrival order, so on time-partitioned workloads a span is a contiguous
// slice of time and its postings cluster on one shard.
type Range struct{ N int }

// Shard implements Router.
func (r Range) Shard(doc postings.DocID) int {
	if r.N <= 1 {
		return 0
	}
	if doc == 0 {
		return 0
	}
	return int((uint64(doc-1) / DefaultRangeSpan) % uint64(r.N))
}

// Shards implements Router.
func (r Range) Shards() int { return r.N }

// Kind implements Router.
func (r Range) Kind() string { return KindRange }

// RoundRobin alternates single documents over the shards: document d goes
// to shard (d-1) mod N.
type RoundRobin struct{ N int }

// Shard implements Router.
func (r RoundRobin) Shard(doc postings.DocID) int {
	if r.N <= 1 {
		return 0
	}
	if doc == 0 {
		return 0
	}
	return int(uint64(doc-1) % uint64(r.N))
}

// Shards implements Router.
func (r RoundRobin) Shards() int { return r.N }

// Kind implements Router.
func (r RoundRobin) Kind() string { return KindRoundRobin }
