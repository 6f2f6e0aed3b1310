package dualindex

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"

	"dualindex/internal/cache"
	"dualindex/internal/core"
	"dualindex/internal/disk"
	"dualindex/internal/docstore"
	"dualindex/internal/lexer"
	"dualindex/internal/longlist"
	"dualindex/internal/maintain"
	"dualindex/internal/postings"
	"dualindex/internal/query"
	"dualindex/internal/vocab"
)

// shard is one independent partition of the engine: a complete dual-structure
// index with its own disk array (or store), bucket space, long-list
// directory, vocabulary, pending batch and flush lock. It is exactly the
// pre-sharding Engine with document-identifier assignment lifted out: the
// Engine assigns identifiers globally and routes each document to one shard,
// so a single-shard engine behaves — down to the simulated I/O trace —
// like the unsharded engine did.
//
// A shard is safe for concurrent use: searches proceed under a read lock and
// run concurrently with each other and with document additions' brief write
// lock. A batch flush holds the write lock only at its boundaries — to
// detach the pending batch and publish a snapshot, and to retire the
// snapshot when the batch is applied — so searches keep flowing while the
// index is updated in place, the paper's continuous 7×24 operational
// setting. Whole-shard maintenance (delete, sweep, rebalance, close)
// serialises with flushes on a second mutex.
type shard struct {
	mu    sync.RWMutex
	opts  Options
	dir   string // this shard's directory; empty for in-memory shards
	index *core.Index
	vocab *vocab.Vocab
	store disk.BlockStore
	cache *cache.Store // non-nil iff Options.CacheBlocks > 0
	obs   *shardObs    // nil unless the engine is instrumented (observe.go)

	// flushMu serialises the whole-shard mutators: flushBatch, delete,
	// sweep, rebalanceBuckets and close. Lock order: flushMu before mu.
	flushMu sync.Mutex

	// While a flush is applying its batch, snap holds the pre-flush index
	// state and snapBatch the detached batch; searches read them instead of
	// the live index (guarded by mu: written under Lock, read under RLock).
	snap      *core.Snapshot
	snapBatch map[postings.WordID][]postings.DocID

	// The in-memory inverted index of documents awaiting a flush; it is
	// searched together with the on-disk index, as the paper prescribes.
	// pending is the write-side bag form the flush consumes; live is the
	// read-optimized form (sorted runs + positional tokens) queries consult
	// when Options.LiveSearch is on, and snapLive its detached counterpart
	// while a flush is applying the batch (paired with snap/snapBatch,
	// following the same publish/release protocol).
	pending         map[postings.WordID][]postings.DocID
	live            *liveTier // nil unless Options.LiveSearch
	snapLive        *liveTier // non-nil only mid-flush, and only with live
	pendingDocs     int
	pendingPostings int64

	// lastDoc is the largest document identifier this shard has seen, used
	// by Open to resume the engine-wide identifier sequence.
	lastDoc postings.DocID

	// docsIndexed counts the documents applied to this shard's on-disk
	// index: flushes add, sweeps subtract what they reclaim. It is the
	// denominator of the dead-posting fraction the maintenance controller
	// watches. Reopening without a document store loses the count (the
	// index stores postings, not documents), which deadFraction treats as
	// "unknown, err toward sweeping".
	docsIndexed int

	docs   docstore.Store // nil unless Options.KeepDocuments
	docErr error          // first deferred document-store failure
}

// openShard creates one shard, resuming from dir's last checkpoint when one
// exists. dir is the shard's own directory (Options.Dir itself for a
// single-shard engine, Dir/shard-<i> otherwise), or empty for in-memory.
func openShard(opts Options, dir string) (*shard, error) {
	pol, err := opts.Policy.internal()
	if err != nil {
		return nil, err
	}
	var store disk.BlockStore
	resume := false
	if dir == "" {
		store = disk.NewMemStore(opts.NumDisks, opts.BlockSize)
	} else {
		resume = shardResumes(dir)
		fs, err := openFileStore(dir, opts, resume)
		if err != nil {
			return nil, err
		}
		store = fs
	}
	var blockCache *cache.Store
	if opts.CacheBlocks > 0 {
		blockCache = cache.New(store, opts.BlockSize, opts.CacheBlocks)
		store = blockCache
	}
	codec, err := postings.ParseCodec(opts.Codec)
	if err != nil {
		store.Close()
		return nil, err
	}
	cfg := core.Config{
		Buckets:      opts.Buckets,
		BucketSize:   opts.BucketSize,
		BlockPosting: int64(opts.BlockSize / longlist.PostingBytes),
		Geometry: disk.Geometry{
			NumDisks:      opts.NumDisks,
			BlocksPerDisk: opts.BlocksPerDisk,
			BlockSize:     opts.BlockSize,
		},
		Policy:       pol,
		Store:        store,
		Codec:        codec,
		FlushWorkers: opts.Workers,
	}
	s := &shard{
		opts:    opts,
		dir:     dir,
		store:   store,
		cache:   blockCache,
		vocab:   vocab.New(),
		pending: make(map[postings.WordID][]postings.DocID),
	}
	if opts.LiveSearch {
		s.live = newLiveTier()
	}
	if resume {
		s.index, err = core.Open(cfg)
		if errors.Is(err, core.ErrNoCheckpoint) {
			// The disk files exist but no batch was ever flushed — a shard
			// whose every batch so far was empty. Start it fresh; any
			// documents in its log are still recovered below.
			s.index, err = core.New(cfg)
		}
		if err == nil {
			err = s.loadVocab()
		}
	} else {
		s.index, err = core.New(cfg)
	}
	if err != nil {
		store.Close()
		return nil, err
	}
	if opts.KeepDocuments {
		if dir == "" {
			s.docs = docstore.NewMem()
		} else {
			ds, err := docstore.OpenFile(filepath.Join(dir, "docs.log"))
			if err != nil {
				store.Close()
				return nil, err
			}
			s.docs = ds
		}
	}
	if resume {
		s.lastDoc = s.maxIndexedDoc()
		if err := s.recoverPendingDocs(); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// recoverPendingDocs re-ingests documents that reached the document store
// after the index's last checkpoint: the doc log is written at AddDocument
// time, so a crash between batches loses no stored document — it reappears
// in the pending batch, ready for the next flush.
func (s *shard) recoverPendingDocs() error {
	w, ok := s.docs.(docstore.Walker)
	if !ok || s.docs == nil {
		return nil
	}
	indexed := s.lastDoc
	return w.ForEach(func(id postings.DocID, text string) error {
		if id <= indexed {
			s.docsIndexed++ // already in the on-disk index: reseed the count
			return nil
		}
		s.indexPendingLocked(id, text)
		return nil
	})
}

// maxIndexedDoc scans the index for the largest document identifier so new
// documents continue the sequence after a resume.
func (s *shard) maxIndexedDoc() postings.DocID {
	var max postings.DocID
	s.index.Buckets().ForEachWord(func(w postings.WordID, _ int) {
		if l := s.index.Buckets().List(w); l != nil && l.MaxDoc() > max {
			max = l.MaxDoc()
		}
	})
	for _, w := range s.index.Directory().Words() {
		if l, err := s.index.GetList(w); err == nil && l.MaxDoc() > max {
			max = l.MaxDoc()
		}
	}
	return max
}

// addDocumentLocked tokenizes text and appends it to the shard's pending
// batch (and live tier, when enabled). The engine has already assigned the
// identifier, routed the document here, and acquired s.mu (see
// Engine.AddDocument for why the two locks overlap).
func (s *shard) addDocumentLocked(doc postings.DocID, text string) {
	s.indexPendingLocked(doc, text)
	if s.docs != nil && s.docErr == nil {
		s.docErr = s.docs.Put(doc, text)
	}
}

// indexPendingLocked indexes one document into the shard's in-memory
// structures: the pending bag map the next flush consumes, and — under
// Options.LiveSearch — the live tier's sorted runs and positional tokens,
// which is what makes the document searchable the moment this returns.
// Called with s.mu held (or on a shard not yet shared, during recovery).
func (s *shard) indexPendingLocked(doc postings.DocID, text string) {
	words := lexer.Tokenize(text, s.opts.Lexer)
	ids := make([]postings.WordID, len(words))
	for i, word := range words {
		ids[i] = s.vocab.GetOrAssign(word)
		s.pending[ids[i]] = append(s.pending[ids[i]], doc)
	}
	if s.live != nil {
		s.live.add(doc, ids, lexer.TokenizePositions(text, s.opts.Lexer))
	}
	s.pendingDocs++
	s.pendingPostings += int64(len(words))
	if doc > s.lastDoc {
		s.lastDoc = doc
	}
}

func (s *shard) numPending() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pendingDocs
}

// numPendingPostings reports how many postings await a flush — the live
// tier's volume, feeding the pending_postings gauge and Stats.
func (s *shard) numPendingPostings() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pendingPostings
}

// flushBatch applies the shard's pending batch to its on-disk index — the
// paper's incremental batch update — and checkpoints. A flush with no
// pending documents is a no-op.
//
// Searches are not blocked while the batch is applied: flushBatch detaches
// the batch and publishes a snapshot of the pre-flush index under a brief
// write lock, applies the update with no shard lock held (queries read the
// snapshot plus the detached batch, so answers are unchanged mid-flush),
// and retires the snapshot under a final brief write lock. Acquiring that
// final lock drains every search still reading the snapshot; chunks the
// batch released cannot be overwritten before the next batch's allocations
// in any case, because they return to free space only at this batch's
// checkpoint.
func (s *shard) flushBatch() (BatchStats, error) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()

	t0 := s.obs.now() // zero (no clock read) when uninstrumented
	s.mu.Lock()
	if s.docErr != nil {
		s.mu.Unlock()
		return BatchStats{}, fmt.Errorf("dualindex: document store: %w", s.docErr)
	}
	if s.pendingDocs == 0 {
		s.mu.Unlock()
		return BatchStats{}, nil
	}
	if s.docs != nil {
		if err := s.docs.Sync(); err != nil {
			s.mu.Unlock()
			return BatchStats{}, err
		}
	}
	batch, batchDocs, batchPostings := s.pending, s.pendingDocs, s.pendingPostings
	s.pending = make(map[postings.WordID][]postings.DocID)
	s.pendingDocs, s.pendingPostings = 0, 0
	s.snap = s.index.Snapshot()
	s.snapBatch = batch
	if s.live != nil {
		// Publish the live tier as the flush's detached tier and start a
		// fresh one: documents added while the batch applies land in the new
		// tier, queries read snap + snapLive + live, and answers stay equal
		// to the pre-flush (hence post-flush) ones throughout.
		s.snapLive, s.live = s.live, newLiveTier()
	}
	s.mu.Unlock()

	words := make([]postings.WordID, 0, len(batch))
	for w := range batch {
		words = append(words, w)
	}
	slices.Sort(words)
	updates := make([]core.WordUpdate, 0, len(words))
	for _, w := range words {
		list := postings.FromDocs(batch[w])
		updates = append(updates, core.WordUpdate{Word: w, Count: list.Len(), List: list})
	}
	st, err := s.index.ApplyUpdate(updates)

	s.mu.Lock()
	s.snap, s.snapBatch = nil, nil
	if err != nil {
		// Put the batch back so no documents are lost. Batch documents
		// precede anything added while the flush ran, so prepending keeps
		// every per-word list sorted; the detached live tier likewise
		// re-absorbs the fresh one.
		for w, docs := range batch {
			s.pending[w] = append(docs, s.pending[w]...)
		}
		s.pendingDocs += batchDocs
		s.pendingPostings += batchPostings
		if s.snapLive != nil {
			s.snapLive.absorb(s.live)
			s.live, s.snapLive = s.snapLive, nil
		}
		s.mu.Unlock()
		return BatchStats{}, err
	}
	// The batch is on disk: retire the detached live tier with the snapshot.
	s.snapLive = nil
	out := BatchStats{
		Docs:      batchDocs,
		Words:     st.Words,
		Postings:  st.Postings,
		Evictions: st.Evictions,
		ReadOps:   st.ReadOps,
		WriteOps:  st.WriteOps,
		Phases: FlushPhases{
			Plan:        st.PlanDur,
			LongApply:   st.LongApplyDur,
			BucketFlush: st.BucketFlushDur,
			Checkpoint:  st.CheckpointDur,
			Release:     st.ReleaseDur,
		},
	}
	s.docsIndexed += batchDocs
	var vocabErr error
	if s.dir != "" {
		vocabErr = s.saveVocab()
	}
	s.mu.Unlock()
	s.obs.observeFlush(t0, st, batchDocs)
	return out, vocabErr
}

// tiers assembles the shard's current read tiers into the one merged Source
// every query path executes against: the on-disk tier, then — mid-flush —
// the detached batch the flush is applying, then the in-memory tier of
// documents awaiting a flush. While a flush is applying its batch, the
// on-disk tier comes from the flush's published snapshot and the detached
// batch rides beside it, so mid-flush answers equal the pre-flush (and
// hence the post-flush) ones; all tiers share one deletion view for the
// same reason. Called under s.mu.RLock, and the returned source is read
// under that same RLock, so the tier set cannot change beneath a query.
func (s *shard) tiers() *query.TieredSource {
	if s.snap != nil {
		isDeleted := s.snap.IsDeleted
		return query.NewTieredSource(
			diskTier{s: s, get: s.snap.GetList},
			memTier{s: s, live: s.snapLive, bags: s.snapBatch, isDeleted: isDeleted},
			memTier{s: s, live: s.live, bags: s.pending, isDeleted: isDeleted},
		)
	}
	return query.NewTieredSource(
		diskTier{s: s, get: s.index.GetList},
		memTier{s: s, live: s.live, bags: s.pending, isDeleted: s.index.IsDeleted},
	)
}

// prefetchPlan is the shared head of plan execution on this shard: reject
// plans needing stored documents when there are none, then fetch the plan's
// term lists with at most Options.Workers reads in flight. Called under
// s.mu.RLock. The returned source serves the prefetched lists from memory
// and falls through to the shard for anything else — notably the positional
// prune lists, which stream lazily so an empty candidate intersection stops
// reading early.
func (s *shard) prefetchPlan(pl *query.Plan) (*query.Prefetched, error) {
	if pl.NeedsDocs && s.docs == nil {
		return nil, fmt.Errorf("dualindex: positional queries need Options.KeepDocuments")
	}
	return query.Prefetch(pl.Fetch, s.tiers(), s.opts.Workers)
}

// execMatch runs a match-only plan against this shard and returns its
// matching documents in ascending order.
func (s *shard) execMatch(pl *query.Plan) ([]DocID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t0 := s.obs.now()
	src, err := s.prefetchPlan(pl)
	if err != nil {
		return nil, err
	}
	t1 := s.obs.observeFetch(t0)
	l, err := query.ExecuteMatch(pl, query.Exec{Src: src, Verify: s.verifyDocs})
	if err != nil {
		return nil, err
	}
	s.obs.observeScore(t1)
	return l.Docs(), nil
}

// execRanked runs a ranked plan against this shard and returns its local
// top k. totalDocs is the engine-wide collection size, so the idf numerator
// is global; document frequencies are shard-local (the standard
// distributed-retrieval approximation — exact for a single shard).
func (s *shard) execRanked(pl *query.Plan, totalDocs int) ([]Match, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t0 := s.obs.now()
	src, err := s.prefetchPlan(pl)
	if err != nil {
		return nil, err
	}
	t1 := s.obs.observeFetch(t0)
	ms, err := query.ExecuteRanked(pl, query.Exec{Src: src, Total: totalDocs, Verify: s.verifyDocs})
	if err != nil {
		return nil, err
	}
	s.obs.observeScore(t1)
	return ms, nil
}

// delete marks a document deleted. It waits for any running flush on this
// shard to finish.
func (s *shard) delete(doc postings.DocID) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index.Delete(doc)
}

// sweep physically reclaims the postings of deleted documents from the
// shard's index and, when documents are kept, compacts them out of its
// document store.
func (s *shard) sweep() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweepLocked()
}

// trySweep is sweep for the maintenance controller: instead of waiting for
// a running flush it answers maintain.ErrBusy, so background maintenance
// slots into the gaps between flushes rather than queueing behind them.
func (s *shard) trySweep() error {
	if !s.flushMu.TryLock() {
		return maintain.ErrBusy
	}
	defer s.flushMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweepLocked()
}

// sweepLocked is the sweep body; the caller holds flushMu and mu.
func (s *shard) sweepLocked() error {
	swept := s.index.DeletedCount()
	deleted := make(map[postings.DocID]bool)
	c, compacting := s.docs.(docstore.Compactor)
	if compacting {
		// Snapshot the filter before the index sweep clears it.
		for d := postings.DocID(1); d <= s.lastDoc; d++ {
			if s.index.IsDeleted(d) {
				deleted[d] = true
			}
		}
	}
	if err := s.index.Sweep(); err != nil {
		return err
	}
	if s.docsIndexed -= swept; s.docsIndexed < 0 {
		s.docsIndexed = 0
	}
	if !compacting || len(deleted) == 0 {
		return nil
	}
	return c.Compact(func(d postings.DocID) bool { return !deleted[d] })
}

// readCost reports how many disk reads a query for word would need on this
// shard (1 chunk = 1 read; bucket words are in memory).
func (s *shard) readCost(word string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w, ok := s.vocab.Lookup(word)
	if !ok {
		return 0
	}
	if s.snap != nil {
		return s.snap.ReadCost(w)
	}
	return s.index.ReadCost(w)
}

// bucketLoadFactor reports how full this shard's short-list bucket space is.
func (s *shard) bucketLoadFactor() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.snap != nil {
		b := s.snap.Buckets()
		capacity := float64(b.NumBuckets()) * float64(b.BucketSize())
		if capacity == 0 {
			return 0
		}
		return float64(b.TotalLoad()) / capacity
	}
	return s.index.BucketLoadFactor()
}

// rebalanceBuckets moves every short list of this shard into a new bucket
// space of the given geometry and checkpoints the result.
func (s *shard) rebalanceBuckets(buckets, bucketSize int) error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index.RebalanceBuckets(buckets, bucketSize)
}

// tryRebalance is rebalanceBuckets for the maintenance controller,
// answering maintain.ErrBusy instead of waiting behind a running flush.
func (s *shard) tryRebalance(buckets, bucketSize int) error {
	if !s.flushMu.TryLock() {
		return maintain.ErrBusy
	}
	defer s.flushMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index.RebalanceBuckets(buckets, bucketSize)
}

// maintainSignals gathers the observability inputs one maintenance
// decision about this shard is made from, under one read lock. During a
// flush the structural numbers come from the flush's snapshot, like every
// other mid-flush read.
func (s *shard) maintainSignals(i int) maintain.ShardSignals {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sig := maintain.ShardSignals{
		Shard:           i,
		PendingDocs:     s.pendingDocs,
		PendingPostings: s.pendingPostings,
	}
	b := s.index.Buckets()
	deleted := s.index.DeletedCount()
	if s.snap != nil {
		b = s.snap.Buckets()
		deleted = s.snap.DeletedCount()
	}
	sig.Buckets = b.NumBuckets()
	sig.BucketSize = b.BucketSize()
	if capacity := float64(sig.Buckets) * float64(sig.BucketSize); capacity > 0 {
		sig.LoadFactor = float64(b.TotalLoad()) / capacity
	}
	sig.DeletedDocs = deleted
	sig.DocsIndexed = s.docsIndexed
	sig.DeadFraction = deadFraction(s.docsIndexed, deleted)
	return sig
}

// deletedCount reports the shard's logically deleted (not yet swept)
// document count, snapshot-aware like stats.
func (s *shard) deletedCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.snap != nil {
		return s.snap.DeletedCount()
	}
	return s.index.DeletedCount()
}

// numDocsIndexed reports how many documents this shard's on-disk index
// holds (flushed minus swept).
func (s *shard) numDocsIndexed() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.docsIndexed
}

// checkConsistency verifies the shard index's structural invariants.
func (s *shard) checkConsistency() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index.CheckConsistency()
}

// document returns the stored text of a document owned by this shard.
func (s *shard) document(id postings.DocID) (text string, ok bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.docs == nil {
		return "", false, fmt.Errorf("dualindex: Options.KeepDocuments not enabled")
	}
	// Mid-flush the live index's deletion filter is mutating; consult the
	// published snapshot's instead, as tiers() does.
	isDeleted := s.index.IsDeleted
	if s.snap != nil {
		isDeleted = s.snap.IsDeleted
	}
	if isDeleted(id) {
		return "", false, nil
	}
	return s.docs.Get(id)
}

// compressionBytes samples the codec's cumulative raw/encoded byte
// counters for the observability closures. The counters are monotonic
// atomics inside the long-list store and s.index is set once at
// construction, so the sample takes no shard lock — metric scrapes run
// concurrently with flushes and must not queue behind them.
func (s *shard) compressionBytes() (raw, encoded int64) {
	return s.index.LongLists().CompressionBytes()
}

// diskOpCounts samples disk d's operation counters; same locking story as
// compressionBytes (the counters are guarded inside the disk array).
func (s *shard) diskOpCounts(d int) disk.DiskOps {
	return s.index.Array().DiskOpCounts(d)
}

// verifyDocs is the positional half of candidate verification (the
// executor's VerifyFunc): it keeps the candidates whose positional tokens
// satisfy check. A candidate still in the live tier verifies from the
// tier's in-memory tokens — no document-store read, no re-tokenization —
// which is what makes phrase, proximity and region conditions on unflushed
// documents as cheap as boolean ones; everything else reads the document
// store. Both paths apply the same tokenization, so a document verifies
// identically before and after its flush. Called under s.mu.RLock, from
// plan execution.
func (s *shard) verifyDocs(candidates []DocID, check func([]lexer.Token) bool) ([]DocID, error) {
	if s.docs == nil {
		return nil, fmt.Errorf("dualindex: positional queries need Options.KeepDocuments")
	}
	var out []DocID
	for _, d := range candidates {
		if toks, ok := s.liveDocTokens(d); ok {
			if check(toks) {
				out = append(out, d)
			}
			continue
		}
		text, ok, err := s.docs.Get(d)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("dualindex: indexed document %d missing from the document store", d)
		}
		if check(lexer.TokenizePositions(text, s.opts.Lexer)) {
			out = append(out, d)
		}
	}
	return out, nil
}

// liveDocTokens looks a document's positional tokens up in the live tier
// and, mid-flush, in the detached tier being applied (snapLive) — the same
// publish/release pairing every tier read honors. ok is false when the
// document is not in either (flushed, or the engine runs without
// Options.LiveSearch). Called under s.mu.RLock.
func (s *shard) liveDocTokens(d postings.DocID) ([]lexer.Token, bool) {
	if s.live != nil {
		if toks, ok := s.live.docTokens(d); ok {
			return toks, true
		}
	}
	if s.snapLive != nil {
		if toks, ok := s.snapLive.docTokens(d); ok {
			return toks, true
		}
	}
	return nil, false
}

// maxDoc reports the largest document identifier this shard has seen — the
// per-shard half of Engine.collectionSize.
func (s *shard) maxDoc() DocID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastDoc
}

// close releases the shard's resources, persisting the vocabulary first for
// on-disk shards.
func (s *shard) close() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	if s.dir != "" {
		first = s.saveVocab()
	}
	if s.docs != nil {
		if err := s.docs.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := s.store.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
