// Package dualindex is a text-retrieval engine built on the dual-structure
// inverted index of Tomasic, Garcia-Molina and Shoens, "Incremental Updates
// of Inverted Lists for Text Document Retrieval" (SIGMOD 1994).
//
// Documents are tokenized and buffered in an in-memory inverted index; a
// batch flush applies them to the on-disk index incrementally, in place:
// short inverted lists live together in fixed-size buckets, long lists live
// in chunks governed by a configurable allocation policy, and every flush
// checkpoints the index so an interrupted build restarts at the last batch
// boundary. Queries — boolean expressions or vector-space rankings — see
// both the on-disk index and the still-unflushed batch, and documents can
// be deleted logically and reclaimed by a background-style sweep.
//
// The engine scales out by sharding: Options.Shards splits it into that
// many independent dual-structure indexes behind one facade. Documents are
// placed by range: each run of 1024 consecutive identifiers lives on one
// shard, and the runs rotate over the shards, so a batch of new documents
// updates each long list on one shard, as the paper's single index does.
// Queries fan out to every shard and merge their sorted answers; ranked
// scores use shard-local document frequencies, so on a sharded engine they
// depend on placement. One shard (the default) is exactly the unsharded
// engine, simulated I/O traces included. The shard count is recorded in a
// versioned MANIFEST.json in the index directory, and Engine.Reshard grows
// (or shrinks) a live index to a new shard count without a rebuild.
//
// # Quick start
//
//	eng, _ := dualindex.Open(dualindex.Options{})
//	eng.AddDocument("the quick brown fox")
//	eng.AddDocument("the lazy dog")
//	eng.FlushBatch()
//	docs, _ := eng.SearchBoolean("quick and fox")
package dualindex

import (
	"cmp"
	"errors"
	"sync"
	"sync/atomic"

	"dualindex/internal/lexer"
	"dualindex/internal/parallel"
	"dualindex/internal/postings"
)

// Engine is a searchable, incrementally updatable document index, served by
// one or more shards.
//
// Engine is safe for concurrent use. The engine itself holds almost no
// state — a short mutex guards the document-identifier sequence — and every
// other operation goes to one shard or fans out to all of them, each of
// which keeps the pre-sharding concurrency discipline: searches under a
// read lock, flushes that only lock at their boundaries, maintenance
// serialised on a per-shard flush lock. Shards therefore add, flush and answer in parallel.
type Engine struct {
	opts Options
	obs  *observer // nil unless Options enables observability (see observe.go)

	// stateMu guards the shard set against the commit swap at the end of
	// Engine.Reshard: every operation that touches e.shards holds RLock
	// for its duration, and the swap — close old shards, commit the staged
	// layout, install the new shards — holds Lock, so it both drains
	// in-flight operations and blocks new ones for that brief window. Lock order: reshardMu, then stateMu, then e.mu
	// and the per-shard locks.
	stateMu sync.RWMutex
	shards  []*shard // empty once the engine is closed (Close or a failed reshard commit)

	// reshardMu gates mutators against a whole reshard: AddDocument,
	// Delete, FlushBatch, Sweep, RebalanceBuckets and Close hold RLock, and
	// Reshard holds Lock for its entire run, so the document set it streams
	// to the new shards cannot change under it. Queries do not touch this
	// lock — they keep answering from the old shards until the commit swap.
	reshardMu sync.RWMutex

	mu      sync.Mutex // guards nextDoc
	nextDoc postings.DocID

	// resharding brackets a running Engine.Reshard: Health reports an open
	// engine ready only while it is false.
	resharding atomic.Bool
}

// shardSpan is how many consecutive document identifiers one shard keeps
// together: enough that a flush batch of new documents lands mostly on one
// shard, few enough that the runs rotate through the shards quickly.
const shardSpan = 1024

// shardOf places a document on one of n shards: identifiers 1..shardSpan
// on shard 0, the next shardSpan on shard 1, and so on, wrapping over n.
// Identifiers are assigned in arrival order, so a batch of new documents
// updates each of its long lists on one shard. Placement decides where
// every document's postings live, so it never changes for an index; only
// Engine.Reshard re-places documents, at the new shard count.
func shardOf(doc postings.DocID, n int) int {
	if n <= 1 || doc == 0 {
		return 0
	}
	return int(uint64(doc-1) / shardSpan % uint64(n))
}

// errClosed answers operations on a closed engine: one that Close or a
// failed reshard commit left without shards.
var errClosed = errors.New("dualindex: the engine is closed")

// shardFor returns the shard owning the document, or nil when the engine
// has no shards. The caller must hold e.stateMu.RLock (or otherwise
// exclude a reshard swap).
func (e *Engine) shardFor(doc postings.DocID) *shard {
	if len(e.shards) == 0 {
		return nil
	}
	return e.shards[shardOf(doc, len(e.shards))]
}

// fanOut runs fn on every shard, all at once, and collects the per-shard
// results in shard order. The lowest-numbered shard's error wins. It holds
// the engine's shard-set read lock for the duration, so a reshard commit
// cannot close a shard mid-query.
func fanOut[T any](e *Engine, fn func(*shard) (T, error)) ([]T, error) {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	if len(e.shards) == 0 {
		return nil, errClosed
	}
	out := make([]T, len(e.shards))
	errs := parallel.Do(len(e.shards), len(e.shards), func(i int) (err error) {
		out[i], err = fn(e.shards[i])
		return err
	})
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// AddDocument tokenizes text, assigns it the next document identifier and
// adds it to its shard's pending tier, returning the identifier. A closed
// engine indexes nothing and returns 0, an identifier no document receives.
//
// The text is scanned before any lock is taken, so concurrent additions
// tokenize in parallel, into one pooled token buffer per document: the
// lowercased bytes of every token and where each ends, with no string per
// token and no sort. Under the shard lock only the vocabulary lookups (by
// bytes; a string is made only for a new word), the pending tier's tail
// pushes and the document store's append remain. The shard lock is
// acquired while the identifier lock is still held, so a shard receives its
// documents in identifier order and a concurrent flush can never detach a
// batch that skips an identifier below one it contains — the append-only
// long lists require ascending identifiers across batches.
func (e *Engine) AddDocument(text string) DocID {
	toks := tokensPool.Get().(*lexer.Tokens)
	defer tokensPool.Put(toks)
	toks.Scan(text, e.opts.Lexer)
	e.reshardMu.RLock()
	defer e.reshardMu.RUnlock()
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	if len(e.shards) == 0 {
		return 0
	}
	e.mu.Lock()
	e.nextDoc++
	doc := e.nextDoc
	s := e.shardFor(doc)
	s.mu.Lock()
	e.mu.Unlock()
	s.addDocumentLocked(doc, text, toks)
	s.mu.Unlock()
	return doc
}

// tokensPool recycles AddDocument's token buffers, so a steady stream of
// additions stops allocating for its scans.
var tokensPool = sync.Pool{New: func() any { return new(lexer.Tokens) }}

// PendingDocs reports how many documents await a flush, across all shards.
func (e *Engine) PendingDocs() int {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	n := 0
	for _, s := range e.shards {
		docs, _ := s.numPending()
		n += docs
	}
	return n
}

// FlushBatch applies every shard's pending batch to its on-disk index — the
// paper's incremental batch update — and checkpoints each shard. Shards
// flush concurrently, at most Options.Workers at a time. The returned
// BatchStats aggregates all shards: documents, words, postings, evictions
// and read/write operations are summed over the per-shard batches. A shard
// with no pending documents applies no batch; on disk it still checkpoints
// any deletions made since its last checkpoint.
//
// Searches are not blocked while batches are applied; each shard publishes
// a pre-flush snapshot that its queries read mid-flush (see shard.flushBatch
// for the full protocol). On error the failing shard restores its pending
// batch, so no documents are lost; shards that already flushed stay
// flushed, which is safe because every shard checkpoints independently.
func (e *Engine) FlushBatch() (BatchStats, error) {
	e.reshardMu.RLock()
	defer e.reshardMu.RUnlock()
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	return e.flushShardsLocked()
}

// flushShardsLocked flushes every shard under the caller's engine locks.
func (e *Engine) flushShardsLocked() (BatchStats, error) {
	if len(e.shards) == 0 {
		return BatchStats{}, errClosed
	}
	stats := make([]BatchStats, len(e.shards))
	errs := parallel.Do(len(e.shards), e.opts.Workers, func(i int) (err error) {
		stats[i], err = e.shards[i].flushBatch()
		return err
	})
	if err := cmp.Or(errs...); err != nil {
		return BatchStats{}, err
	}
	var out BatchStats
	for _, st := range stats {
		out = out.add(st)
	}
	return out, nil
}

// Delete marks a document deleted; it disappears from results immediately
// and its postings are reclaimed by Sweep. On disk the deletion is durable
// at the next FlushBatch or Close. Delete waits for any running
// flush of the owning shard to finish. An identifier AddDocument has not
// returned yet (0, or beyond the last one assigned) is ignored, so it cannot
// hide the document that later receives it.
func (e *Engine) Delete(doc DocID) {
	e.reshardMu.RLock()
	defer e.reshardMu.RUnlock()
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	e.mu.Lock()
	assigned := doc != 0 && doc <= e.nextDoc
	e.mu.Unlock()
	if s := e.shardFor(doc); assigned && s != nil {
		s.delete(doc)
	}
}

// Sweep physically reclaims the postings of deleted documents from every
// shard and, when documents are kept, compacts them out of the document
// stores.
func (e *Engine) Sweep() error {
	e.reshardMu.RLock()
	defer e.reshardMu.RUnlock()
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	if len(e.shards) == 0 {
		return errClosed
	}
	for _, s := range e.shards {
		if err := s.sweep(); err != nil {
			return err
		}
	}
	return nil
}

// RebalanceBuckets moves every short list of every shard into a new bucket
// space of the given (per-shard) geometry and checkpoints the result. Query
// answers are unaffected; only the short/long division shifts.
func (e *Engine) RebalanceBuckets(buckets, bucketSize int) error {
	e.reshardMu.RLock()
	defer e.reshardMu.RUnlock()
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	if len(e.shards) == 0 {
		return errClosed
	}
	for _, s := range e.shards {
		if err := s.rebalanceBuckets(buckets, bucketSize); err != nil {
			return err
		}
	}
	return nil
}

// CheckConsistency verifies every shard's structural invariants — the
// dual-structure property, chunk placement and overlap, block conservation,
// and (for persistent engines) that every long list decodes cleanly. Run it
// after reopening an index to validate the checkpoints.
func (e *Engine) CheckConsistency() error {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	if len(e.shards) == 0 {
		return errClosed
	}
	for _, s := range e.shards {
		if err := s.checkConsistency(); err != nil {
			return err
		}
	}
	return nil
}

// Health describes the engine's liveness and readiness — what /healthz and
// /readyz serve. Healthy means the engine is open; Ready additionally
// means no reshard is migrating the shard set.
type Health struct {
	Healthy bool     `json:"healthy"`
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

// Health reports the engine's current health states.
func (e *Engine) Health() Health {
	e.stateMu.RLock()
	closed := len(e.shards) == 0
	e.stateMu.RUnlock()
	if closed {
		return Health{Reasons: []string{"engine closed"}}
	}
	if e.resharding.Load() {
		return Health{Healthy: true, Reasons: []string{"reshard in progress"}}
	}
	return Health{Healthy: true, Ready: true}
}

// Close releases the engine's resources, persisting each shard's unsaved
// deletions first for on-disk engines. All shards are closed even if one
// fails; the first error is returned. Close waits for a running reshard
// and for the operations in flight to finish. The engine then holds
// no shards: every later operation finds it closed, and a second Close
// returns nil.
func (e *Engine) Close() error {
	e.reshardMu.RLock()
	defer e.reshardMu.RUnlock()
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	var first error
	for _, s := range e.shards {
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	e.shards = nil
	return first
}
