package dualindex

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dualindex/internal/lexer"
	"dualindex/internal/manifest"
	"dualindex/internal/postings"
)

// reshardBatchDocs is how many documents a reshard migrates between flushes
// of the staged shards — the migration reuses the engine's normal add/flush
// batch path, so this is its batch size.
const reshardBatchDocs = 1024

// ReshardStats summarises one completed Engine.Reshard.
type ReshardStats struct {
	// FromShards and ToShards are the shard counts before and after.
	FromShards, ToShards int
	// Docs is how many live documents were migrated into the new layout.
	Docs int
	// Batches is how many flush batches the migration used.
	Batches int
	// Skipped counts logically deleted documents left behind — a reshard
	// is also an implicit sweep, since only live documents are re-placed.
	Skipped int
	// Dur is the end-to-end wall-clock time, migration through commit.
	Dur time.Duration
}

// Reshard changes a live index's shard count to n without a rebuild: every
// live document is streamed out of the document store, placed on
// shardOf(id, n), and applied to a staged set of new shards through the
// normal add/flush batch path. The index's manifest is rewritten as part
// of the commit. Every new shard checkpoints the old high-water document
// identifier, so identifiers continue past deleted documents the
// migration left behind.
//
// Reshard requires Options.KeepDocuments: the document store is the source
// the new shards are built from. Logically deleted documents are not
// migrated, so a reshard is also an implicit sweep.
//
// Concurrency: queries keep answering from the old shards for the whole
// migration — the paper's 7×24 setting, no offline rebuild — while
// mutators (AddDocument, Delete, FlushBatch, maintenance) block until the
// reshard finishes. The commit at the end swaps the shard set under a
// brief exclusive lock that drains in-flight queries.
//
// Crash safety (persistent engines): the new layout is staged under
// Dir/.resharding/ and committed by an atomic rename to Dir/.reshard-commit/
// followed by moving the staged entries into place and the rewritten
// manifest last. A crash before the rename leaves a staging directory that
// the next Open discards — the index is untouched. A crash after the
// rename leaves a commit directory that the next Open rolls forward.
func (e *Engine) Reshard(n int) (ReshardStats, error) {
	e.reshardMu.Lock()
	defer e.reshardMu.Unlock()
	e.resharding.Store(true) // readiness: not ready while the shard set migrates
	defer e.resharding.Store(false)

	start := time.Now()
	// No mutator is running (reshardMu) and no other reshard can swap the
	// shard set, so e.shards is stable for the migration; queries share
	// it concurrently but never modify it.
	old := e.shards
	st := ReshardStats{FromShards: len(old), ToShards: n}
	if len(old) == 0 {
		return st, errClosed
	}
	if n < 1 {
		return st, fmt.Errorf("dualindex: reshard to %d shards", n)
	}
	if n == len(old) {
		return st, fmt.Errorf("dualindex: index already has %d shards", n)
	}
	for i, s := range old {
		if s.docs == nil {
			return st, fmt.Errorf("dualindex: reshard streams documents from the document store; Options.KeepDocuments is required")
		}
		if s.vocab.Len() > 0 && s.docs.Len() == 0 {
			return st, fmt.Errorf("dualindex: shard %d has indexed documents but an empty document store; the index cannot be resharded", i)
		}
	}
	// Flush pending batches first so the old shards are checkpointed and
	// their document logs synced before their contents are re-placed.
	if _, err := e.flushShardsLocked(); err != nil {
		return st, fmt.Errorf("dualindex: pre-reshard flush: %w", err)
	}

	// Stage the new shards: in a .resharding/ staging directory for
	// persistent engines, in memory otherwise.
	staging := ""
	if e.opts.Dir != "" {
		staging = filepath.Join(e.opts.Dir, reshardStagingName)
		if err := os.RemoveAll(staging); err != nil {
			return st, err
		}
	}
	newOpts := e.opts
	newOpts.Shards = n
	newShards, err := openShards(newOpts, staging, n)
	discard := func() {
		for _, s := range newShards {
			s.close()
		}
		if staging != "" {
			os.RemoveAll(staging)
		}
	}
	if err != nil {
		discard()
		return st, fmt.Errorf("dualindex: staging %w", err)
	}
	for i, s := range newShards {
		s.obs = e.obs.shardObs(i)
	}

	// Stream every live document into the staged layout in ascending
	// document-id order — not shard by shard: each staged shard's postings
	// must see monotonically increasing ids across flush batches (the
	// index's append invariant), and only the global id order guarantees
	// that. shardOf knows which old shard holds each id, so the stream
	// is a sequence of per-document fetches, flushed every
	// reshardBatchDocs documents.
	var lastDoc postings.DocID
	for _, s := range old {
		s.mu.RLock()
		if s.lastDoc > lastDoc {
			lastDoc = s.lastDoc
		}
		s.mu.RUnlock()
	}
	streamStart := e.obs.now()
	pending := 0
	flushStaged := func() error {
		for _, s := range newShards {
			if _, err := s.flushBatch(); err != nil {
				return err
			}
		}
		st.Batches++
		pending = 0
		return nil
	}
	var toks lexer.Tokens // reused: each document is indexed before the next scan
	for id := postings.DocID(1); id <= lastDoc; id++ {
		s := old[shardOf(id, len(old))]
		// document() is snapshot-aware: a flush applying on the source shard
		// cannot tear the deletion check. ok is false both for deleted
		// documents and for ones already compacted out of the store.
		text, ok, err := s.document(id)
		if err != nil {
			discard()
			return st, fmt.Errorf("dualindex: reading document %d: %w", id, err)
		}
		if !ok {
			st.Skipped++
			continue
		}
		toks.Scan(text, e.opts.Lexer)
		t := newShards[shardOf(id, n)]
		t.mu.Lock()
		t.addDocumentLocked(id, text, &toks)
		t.mu.Unlock()
		st.Docs++
		pending++
		if pending >= reshardBatchDocs {
			if err := flushStaged(); err != nil {
				discard()
				return st, fmt.Errorf("dualindex: migration flush: %w", err)
			}
		}
	}
	if pending > 0 {
		if err := flushStaged(); err != nil {
			discard()
			return st, fmt.Errorf("dualindex: final migration flush: %w", err)
		}
	}
	e.obs.observeReshardStream(st.Docs, st.Skipped, streamStart)
	// A staged shard's high-water mark otherwise comes from the documents
	// it received, and trailing deleted documents were not migrated.
	for _, s := range newShards {
		s.raiseHighWater(lastDoc)
	}

	// Commit: install the staged shards as the engine's shard set. The
	// exclusive state lock drains in-flight queries; they resume against
	// the new shards.
	if e.opts.Dir == "" {
		e.stateMu.Lock()
		e.shards, e.opts.Shards = newShards, n
		e.stateMu.Unlock()
		for _, s := range old {
			s.close()
		}
	} else {
		// Persist the staged layout: manifest into staging, shards closed,
		// then the atomic rename that is the commit point, then the
		// roll-forward that moves entries into place — the same
		// roll-forward Open runs after a crash.
		if err := manifest.Save(staging, manifestFor(newOpts)); err != nil {
			discard()
			return st, fmt.Errorf("dualindex: staging manifest: %w", err)
		}
		for _, s := range newShards {
			if err := s.close(); err != nil {
				discard()
				return st, fmt.Errorf("dualindex: closing staged shard: %w", err)
			}
		}
		e.stateMu.Lock()
		for _, s := range old {
			s.close()
		}
		if err := os.Rename(staging, filepath.Join(e.opts.Dir, reshardCommitName)); err != nil {
			os.RemoveAll(staging)
			err = e.reshardFailedLocked(fmt.Errorf("dualindex: reshard commit rename: %w", err))
			e.stateMu.Unlock()
			return st, err
		}
		if err := finishReshardCommit(e.opts.Dir); err != nil {
			err = e.reshardFailedLocked(fmt.Errorf("dualindex: reshard commit: %w", err))
			e.stateMu.Unlock()
			return st, err
		}
		// Reopen the committed shards from their final locations.
		reopened, err := openShards(newOpts, e.opts.Dir, n)
		if err != nil {
			err = e.reshardFailedLocked(fmt.Errorf("dualindex: reopening after reshard: %w", err))
			e.stateMu.Unlock()
			return st, err
		}
		for i, s := range reopened {
			s.obs = e.obs.shardObs(i)
		}
		e.shards, e.opts.Shards = reopened, n
		e.stateMu.Unlock()
	}
	e.registerShardFuncs()
	st.ToShards = n
	st.Dur = time.Since(start)
	e.obs.observeReshard(start, st)
	return st, nil
}

// reshardFailedLocked closes the engine after a commit-phase failure: the
// old shards are already closed and the directory may be mid-commit, so
// serving from stale shard handles would be wrong. With no shards the
// engine is closed, as after Close. The on-disk index is still recoverable — the
// commit either never happened (old layout intact) or rolls forward on the
// next Open. Caller holds e.stateMu.Lock.
func (e *Engine) reshardFailedLocked(err error) error {
	e.shards = nil
	return fmt.Errorf("%w; the engine is closed — reopen the index with Open, which recovers the directory", err)
}
