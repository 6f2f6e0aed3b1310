package dualindex

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"

	"dualindex/internal/bucket"
	"dualindex/internal/cache"
	"dualindex/internal/core"
	"dualindex/internal/directory"
	"dualindex/internal/disk"
	"dualindex/internal/docstore"
	"dualindex/internal/lexer"
	"dualindex/internal/longlist"
	"dualindex/internal/parallel"
	"dualindex/internal/postings"
	"dualindex/internal/query"
	"dualindex/internal/vocab"
)

// shard is one independent partition of the engine: a complete dual-structure
// index with its own disk array (or store), bucket space, long-list
// directory, vocabulary, pending batch and flush lock. It is exactly the
// pre-sharding Engine with document-identifier assignment lifted out: the
// Engine assigns identifiers globally and places each document on one shard,
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

	// pending is the in-memory inverted index of documents awaiting a
	// flush, searched together with the on-disk index as the paper
	// prescribes. While a flush applies a batch, snap holds the pre-flush
	// index state and snapPending the detached batch; searches read them
	// (through view and tiers) instead of the mutating index. All three are
	// guarded by mu: written under Lock, read under RLock.
	snap        *core.Snapshot
	pending     *pendingTier
	snapPending *pendingTier

	// lastDoc is the largest document identifier this shard has seen, used
	// by Open to resume the engine-wide identifier sequence: the index's
	// checkpointed high-water mark, raised by every document added since.
	lastDoc postings.DocID

	// docsIndexed counts the documents applied to this shard's on-disk
	// index: flushes add, sweeps subtract what they reclaim. It is the
	// denominator of the dead-posting fraction Stats reports. Reopening
	// without a document store loses the count (the index stores postings,
	// not documents), which deadFraction treats as "unknown, err toward
	// sweeping".
	docsIndexed int

	docs   docstore.Store // nil unless Options.KeepDocuments
	docErr error          // first deferred document-store failure

	// vocab.txt, the vocabulary log, holds the first logWords words in its
	// first logSize bytes. Anything after them is an append no checkpoint
	// counts, which the next append cuts. Guarded by mu.
	logWords int
	logSize  int64
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
		fs, err := openAsyncStore(dir, opts, resume)
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
		pending: newPendingTier(),
	}
	// The checkpoint, the vocabulary and the document log are independent
	// files: a resumed shard loads them concurrently, longest first.
	loads := []func() error{func() (err error) {
		s.index, err = openIndex(cfg, dir, resume)
		return err
	}}
	if resume {
		loads = append(loads, func() (err error) {
			s.vocab, err = loadVocab(s.vocabPath())
			return err
		})
	}
	loads = append(loads, func() (err error) {
		s.docs, err = openDocs(opts, dir)
		return err
	})
	errs := parallel.Do(len(loads), opts.Workers, func(i int) error { return loads[i]() })
	err = cmp.Or(errs...)
	if err == nil && resume {
		err = s.cutVocab()
	}
	if err != nil {
		if s.docs != nil {
			s.docs.Close()
		}
		store.Close()
		return nil, err
	}
	if resume {
		// The checkpoint's high-water mark resumes the identifier sequence,
		// even past documents a sweep has since removed.
		s.lastDoc = s.index.MaxDoc()
		if err := s.recoverPendingDocs(); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// openIndex resumes the index from dir's checkpoint, or creates it when the
// shard is new.
func openIndex(cfg core.Config, dir string, resume bool) (*core.Index, error) {
	if !resume {
		return core.New(cfg)
	}
	ix, err := core.Open(cfg)
	if errors.Is(err, core.ErrNoCheckpoint) {
		// The disk files exist but no batch was ever flushed — a shard
		// whose every batch so far was empty. Start it fresh; any
		// documents in its log are still recovered.
		return core.New(cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("reading the checkpoint in %s: %w", dir, err)
	}
	return ix, nil
}

// openDocs opens the shard's document store: nil without
// Options.KeepDocuments, in memory for an in-memory shard, and otherwise
// the document log in dir, whose record offsets it scans.
func openDocs(opts Options, dir string) (docstore.Store, error) {
	switch {
	case !opts.KeepDocuments:
		return nil, nil
	case dir == "":
		return docstore.NewMem(), nil
	}
	ds, err := docstore.OpenFile(filepath.Join(dir, "docs.log"))
	if err != nil {
		return nil, err // not a nil *File in a non-nil Store
	}
	return ds, nil
}

// recoverPendingDocs re-ingests documents that reached the document store
// after the index's last checkpoint: the doc log is written at AddDocument
// time, so a crash between batches loses no stored document — it reappears
// in the pending tier, ready for the next flush. Only documents above the
// checkpoint's high-water mark are read, in ascending identifier order (the
// order the tier's runs must grow in); every other stored document is
// already in the on-disk index and reseeds the indexed count. Each one is
// scanned and indexed exactly as AddDocument does, into one reused token
// buffer.
func (s *shard) recoverPendingDocs() error {
	w, ok := s.docs.(docstore.Walker)
	if !ok {
		return nil
	}
	recovered := 0
	var toks lexer.Tokens
	err := w.ForEach(s.lastDoc, func(id postings.DocID, text string) error {
		toks.Scan(text, s.opts.Lexer)
		s.indexPendingLocked(id, &toks)
		recovered++
		return nil
	})
	s.docsIndexed = s.docs.Len() - recovered
	return err
}

// addDocumentLocked appends a document to the shard's pending tier and
// document store; toks holds its tokens, scanned from text before any lock
// was taken. The engine has already assigned the identifier, placed the
// document here, and acquired s.mu (see Engine.AddDocument for why the two
// locks overlap). Storing the text here is what lets positional queries
// verify the document before its flush.
func (s *shard) addDocumentLocked(doc postings.DocID, text string, toks *lexer.Tokens) {
	s.indexPendingLocked(doc, toks)
	if s.docs != nil && s.docErr == nil {
		s.docErr = s.docs.Put(doc, text)
	}
}

// indexPendingLocked resolves the document's tokens to word identifiers and
// pushes it into the pending tier, which makes it searchable the moment this
// returns. A known word resolves by a lookup on its bytes in the scan
// buffer; only a word the vocabulary has never seen becomes a string. Those
// words are assigned identifiers in sorted word order, each once — the order
// assigning from the document's sorted word set gives, on which every
// identifier, and so every bucket, trace and artifact, depends. Called with
// s.mu held (or on a shard not yet shared, during recovery).
func (s *shard) indexPendingLocked(doc postings.DocID, toks *lexer.Tokens) {
	ids := make([]postings.WordID, toks.Len())
	var fresh []int // tokens of unseen words
	for i := range ids {
		id, known := s.vocab.LookupBytes(toks.Word(i))
		if !known {
			fresh = append(fresh, i)
		}
		ids[i] = id
	}
	slices.SortFunc(fresh, func(a, b int) int { return bytes.Compare(toks.Word(a), toks.Word(b)) })
	for j, i := range fresh {
		if j > 0 && bytes.Equal(toks.Word(i), toks.Word(fresh[j-1])) {
			ids[i] = ids[fresh[j-1]] // a repeat of the word just assigned
			continue
		}
		ids[i] = s.vocab.GetOrAssign(string(toks.Word(i)))
	}
	s.pending.add(doc, ids)
	if doc > s.lastDoc {
		s.lastDoc = doc
	}
}

// pendingSize reports the unflushed volume in documents and postings. It
// counts the pending tier only: mid-flush, the detached batch is already
// on its way to disk. Called under s.mu.
func (s *shard) pendingSize() (docs int, postings int64) {
	return s.pending.docs, s.pending.postings
}

// numPending is pendingSize under the shard's read lock, for callers that
// do not hold it: Engine.PendingDocs and the pending gauges.
func (s *shard) numPending() (docs int, postings int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pendingSize()
}

// flushBatch applies the shard's pending batch to its on-disk index — the
// paper's incremental batch update — and checkpoints. A flush with no
// pending documents applies nothing; it only checkpoints deletions made
// since the last checkpoint, which counts as no batch.
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
	if s.pending.docs == 0 {
		// No batch to apply, but deletions since the last checkpoint
		// still have to reach disk.
		err := s.checkpointLocked()
		s.mu.Unlock()
		return BatchStats{}, err
	}
	// Both logs reach disk before the checkpoint that counts them: the
	// batch's documents and the words it assigned. A failure here leaves
	// the batch pending, and nothing committed.
	err := s.appendVocab()
	if err == nil && s.docs != nil {
		err = s.docs.Sync()
	}
	if err != nil {
		s.mu.Unlock()
		return BatchStats{}, err
	}
	// Publish: detach the pending tier as the batch and start a fresh one.
	// Documents added while the batch applies land in the fresh tier;
	// queries read snap + snapPending + pending, so answers stay equal to
	// the pre-flush (hence post-flush) ones throughout.
	batch := s.pending
	s.snap, s.snapPending, s.pending = s.index.Snapshot(), batch, newPendingTier()
	s.mu.Unlock()

	st, err := s.index.ApplyUpdate(batch.updates())

	s.mu.Lock()
	s.snap, s.snapPending = nil, nil
	if err != nil {
		// Put the batch back so no documents are lost: its documents precede
		// everything added while the flush ran, so it absorbs the fresh tier.
		batch.absorb(s.pending)
		s.pending = batch
		s.mu.Unlock()
		return BatchStats{}, err
	}
	out := BatchStats{
		Docs:      batch.docs,
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
	s.docsIndexed += batch.docs
	s.mu.Unlock()
	s.obs.observeFlush(t0, st, batch.docs)
	return out, nil
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
	v := s.view()
	return query.NewTieredSource(
		diskTier{s: s, get: v.GetList},
		newMemTier(s, s.snapPending, v.Deleted()),
		newMemTier(s, s.pending, v.Deleted()),
	)
}

// indexView is the searchable state a core.Index and its core.Snapshot
// share: what the shard's read paths consult.
type indexView interface {
	GetList(w postings.WordID) (*postings.List, error)
	ReadCost(w postings.WordID) int
	IsDeleted(doc postings.DocID) bool
	Deleted() []postings.DocID
	DeletedCount() int
	Batches() int
	Directory() *directory.Dir
	Buckets() *bucket.Set
}

// view returns the index state every read path consults: the flush's
// published snapshot while a batch applies, the index otherwise. Called
// under s.mu (either mode).
func (s *shard) view() indexView {
	if s.snap != nil {
		return s.snap
	}
	return s.index
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
func (s *shard) execMatch(pl *query.Plan) (*postings.List, error) {
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
	// The list may be shared with the shard's tiers or cache: hand back a
	// copy.
	return l.Clone(), nil
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
	// Sweep replaces the index's deleted list without writing to it, and
	// keeps only its suffix of still-pending documents, so what precedes
	// that suffix here is the swept set.
	deleted := s.index.Deleted()
	if err := s.index.Sweep(); err != nil {
		return err
	}
	swept := deleted[:len(deleted)-s.index.DeletedCount()]
	if s.docsIndexed -= len(swept); s.docsIndexed < 0 {
		s.docsIndexed = 0
	}
	c, compacting := s.docs.(docstore.Compactor)
	if !compacting || len(swept) == 0 {
		return nil
	}
	return c.Compact(func(d postings.DocID) bool {
		_, gone := slices.BinarySearch(swept, d)
		return !gone
	})
}

// checkpointLocked makes an on-disk shard's deletions and high-water mark
// since its last checkpoint durable. In-memory shards skip it: nothing
// outlives them. The caller holds flushMu and mu.
func (s *shard) checkpointLocked() error {
	if s.dir == "" {
		return nil
	}
	return s.index.Checkpoint()
}

// raiseHighWater lifts the shard's high-water document identifier to doc,
// so identifiers continue past doc even if the shard never held it; the
// next checkpoint, at the latest close, records it.
func (s *shard) raiseHighWater(doc postings.DocID) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if doc > s.lastDoc {
		s.lastDoc = doc
	}
	s.index.RaiseMaxDoc(doc)
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
	return s.view().ReadCost(w)
}

// bucketLoadFactor reports how full this shard's short-list bucket space is.
func (s *shard) bucketLoadFactor() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.view().Buckets().LoadFactor()
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

// deletedCount reports the shard's logically deleted (not yet swept)
// document count, snapshot-aware like stats.
func (s *shard) deletedCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.view().DeletedCount()
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
	if s.view().IsDeleted(id) {
		return "", false, nil
	}
	return s.docs.Get(id)
}

// compressionBytes samples the codec's cumulative raw/encoded byte
// counters for the observability closures and stats. The counters are
// monotonic atomics inside the long-list store and s.index is set once at
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

// ioCounts samples the whole array's operation counters, like diskOpCounts.
func (s *shard) ioCounts() disk.DiskOps {
	a := s.index.Array()
	return disk.DiskOps{ReadOps: a.ReadOps(), WriteOps: a.WriteOps(), ReadBlocks: a.ReadBlocks(), WriteBlocks: a.WriteBlocks()}
}

// verifyChunk is how many candidates one verification task checks: few
// enough that a few hundred candidates spread over the workers, enough that
// a query with a handful stays on the calling goroutine.
const verifyChunk = 16

// verifyDocs is the positional half of candidate verification (the
// executor's VerifyFunc): it keeps the candidates whose stored text
// satisfies check. Each candidate costs one document-store read and one
// streaming pass over its tokens that stops as soon as the check is decided
// (query.Check.MatchText); no token slice is built. Pending documents are in
// the store from the moment AddDocument returns, so flushed and unflushed
// candidates take this same path and verify identically.
//
// The candidates are checked in chunks of verifyChunk, at most
// Options.Workers chunks at a time; the document store serves concurrent
// Gets. Each candidate's verdict lands in its own slot and the survivors
// are collected in candidate order, so the answer is ascending and equal
// to a serial pass's. Any failure fails the whole call, with the error of
// the first failing candidate in candidate order: no partial answer
// escapes. Called under s.mu.RLock, from plan execution.
func (s *shard) verifyDocs(candidates []DocID, check query.Check) ([]DocID, error) {
	if s.docs == nil {
		return nil, fmt.Errorf("dualindex: positional queries need Options.KeepDocuments")
	}
	keep := make([]bool, len(candidates))
	chunks := (len(candidates) + verifyChunk - 1) / verifyChunk
	errs := parallel.Do(chunks, s.opts.Workers, func(c int) error {
		lo := c * verifyChunk
		for i, d := range candidates[lo:min(lo+verifyChunk, len(candidates))] {
			text, ok, err := s.docs.Get(d)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("dualindex: indexed document %d missing from the document store", d)
			}
			keep[lo+i] = check.MatchText(text, s.opts.Lexer)
		}
		return nil
	})
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	var out []DocID
	for i, d := range candidates {
		if keep[i] {
			out = append(out, d)
		}
	}
	return out, nil
}

// maxDoc reports the largest document identifier this shard has seen — the
// per-shard half of Engine.collectionSize.
func (s *shard) maxDoc() DocID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastDoc
}

// close releases the shard's resources, persisting unsaved deletions first
// for on-disk shards.
func (s *shard) close() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	first := s.checkpointLocked()
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
