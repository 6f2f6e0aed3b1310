package dualindex

import "time"

// FlushPhases breaks one batch flush's wall-clock time into the paper's
// phases: the per-word apply (allocation, bucket and directory
// bookkeeping, reads and encoding), the commit writing the planned
// long-list and bucket-stripe images (LongApply), encoding and staging the
// striped bucket region, the checkpoint (directory + deleted list +
// superblock) and the release of the previous images. For a sharded engine the durations are
// sums over the shards' flushes — CPU-seconds of flush work, not elapsed
// time, since shards flush concurrently.
type FlushPhases struct {
	Plan        time.Duration
	LongApply   time.Duration
	BucketFlush time.Duration
	Checkpoint  time.Duration
	Release     time.Duration
}

// Total sums the phase durations.
func (p FlushPhases) Total() time.Duration {
	return p.Plan + p.LongApply + p.BucketFlush + p.Checkpoint + p.Release
}

func (p FlushPhases) add(o FlushPhases) FlushPhases {
	p.Plan += o.Plan
	p.LongApply += o.LongApply
	p.BucketFlush += o.BucketFlush
	p.Checkpoint += o.Checkpoint
	p.Release += o.Release
	return p
}

// BatchStats summarises one flushed batch. For a sharded engine the fields
// are sums over every shard's batch of the same flush.
type BatchStats struct {
	Docs      int
	Words     int
	Postings  int64
	Evictions int
	ReadOps   int64
	WriteOps  int64
	// Phases is where the flush spent its time, summed across shards.
	Phases FlushPhases
}

// add returns the field-wise sum of two batch summaries — how FlushBatch
// aggregates the per-shard batches into one answer.
func (b BatchStats) add(o BatchStats) BatchStats {
	b.Docs += o.Docs
	b.Words += o.Words
	b.Postings += o.Postings
	b.Evictions += o.Evictions
	b.ReadOps += o.ReadOps
	b.WriteOps += o.WriteOps
	b.Phases = b.Phases.add(o.Phases)
	return b
}

// Stats describes the engine's index state. For a sharded engine the counts
// (words, long lists, bucket words, I/O and cache counters, deletions) are
// summed across shards — a word indexed by several shards counts once per
// shard, since each shard keeps its own vocabulary — while Utilization and
// AvgReadsPerList are means over long lists and Batches is the largest
// per-shard batch count (shards whose pending batch was empty skip a
// flush). A single-shard engine reports exactly the unsharded numbers.
type Stats struct {
	Docs            int64
	Words           int
	Batches         int
	LongLists       int
	BucketWords     int
	Utilization     float64
	AvgReadsPerList float64
	ReadOps         int64
	WriteOps        int64
	// ReadBlocks and WriteBlocks count the blocks those operations moved —
	// the I/O volume behind the operation counts. With a compressing codec,
	// fewer blocks move for the same postings; the delta against CodecRaw is
	// the compression win (pinned by TestCompressedCodecsMoveFewerBlocks).
	ReadBlocks  int64
	WriteBlocks int64
	Deleted     int
	// DocsIndexed counts the documents currently applied to the on-disk
	// index (flushed minus swept); DeadFraction is Deleted over DocsIndexed
	// — the share of indexed documents whose postings a Sweep would
	// reclaim. The count is rebuilt from the document store on reopen; an index reopened
	// without one reports DocsIndexed 0, and DeadFraction then saturates at
	// 1.0 whenever deletions exist (unknown errs toward sweeping).
	DocsIndexed  int64
	DeadFraction float64
	// CodecRawBytes and CodecEncodedBytes are the long-list codec's
	// cumulative input and output volume: how many raw posting bytes were
	// packed into how many encoded bytes. Both zero under CodecRaw (nothing
	// is re-encoded). CompressionRatio is raw/encoded, 0 before any packing.
	CodecRawBytes     int64
	CodecEncodedBytes int64
	CompressionRatio  float64
	// PendingDocs and PendingPostings are the pending tier's size: documents
	// added since the last flush and the postings they carry. A flush
	// drains them to zero; mid-flush, the batch being applied is no longer
	// counted here.
	PendingDocs     int
	PendingPostings int64
	// MaxBucketLoadFactor is the fullest shard's bucket load factor. The
	// engine-wide BucketLoadFactor is a mean, and range placement fills
	// the shards one span at a time, so the shard receiving new documents
	// runs ahead of it: a hot shard can saturate (evicting short lists
	// early) while the mean still looks healthy, so rebalancing decisions
	// should watch the max. For a single shard, max and mean coincide.
	MaxBucketLoadFactor float64
	// Block-cache counters (all zero unless Options.CacheBlocks > 0).
	// Counted per block: a three-block read with one resident block scores
	// one hit and two misses.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	CacheHitRate   float64
}

// stats reports one shard's statistics (every field but Docs, which only
// the engine knows). During a flush, the structural numbers come from the
// flush's snapshot (pre-flush state); the I/O and cache counters are always
// live.
func (s *shard) stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ops := s.view(), s.ioCounts()
	st := Stats{
		Words:               s.vocab.Len(),
		Batches:             v.Batches(),
		LongLists:           v.Directory().NumWords(),
		BucketWords:         v.Buckets().TotalWords(),
		Utilization:         v.Directory().Utilization(),
		AvgReadsPerList:     v.Directory().AvgReadsPerList(),
		ReadOps:             ops.ReadOps,
		WriteOps:            ops.WriteOps,
		ReadBlocks:          ops.ReadBlocks,
		WriteBlocks:         ops.WriteBlocks,
		Deleted:             v.DeletedCount(),
		DocsIndexed:         int64(s.docsIndexed),
		MaxBucketLoadFactor: v.Buckets().LoadFactor(),
	}
	st.CodecRawBytes, st.CodecEncodedBytes = s.compressionBytes()
	if st.CodecEncodedBytes > 0 {
		st.CompressionRatio = float64(st.CodecRawBytes) / float64(st.CodecEncodedBytes)
	}
	st.DeadFraction = deadFraction(s.docsIndexed, st.Deleted)
	st.PendingDocs, st.PendingPostings = s.pendingSize()
	if s.cache != nil {
		cs := s.cache.Stats()
		st.CacheHits = cs.Hits
		st.CacheMisses = cs.Misses
		st.CacheEvictions = cs.Evictions
		st.CacheHitRate = cs.HitRate()
	}
	return st
}

// Stats reports current index statistics, aggregated over the shards.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	docs := int64(e.nextDoc)
	e.mu.Unlock()
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	if len(e.shards) == 1 {
		// Exactly the single shard's numbers — no aggregation arithmetic, so
		// the unsharded engine's Stats are reproduced bit for bit.
		st := e.shards[0].stats()
		st.Docs = docs
		return st
	}
	st := Stats{Docs: docs}
	var utilWeighted, readsWeighted float64
	for _, s := range e.shards {
		ss := s.stats()
		st.Words += ss.Words
		if ss.Batches > st.Batches {
			st.Batches = ss.Batches
		}
		st.LongLists += ss.LongLists
		st.BucketWords += ss.BucketWords
		st.ReadOps += ss.ReadOps
		st.WriteOps += ss.WriteOps
		st.ReadBlocks += ss.ReadBlocks
		st.WriteBlocks += ss.WriteBlocks
		st.CodecRawBytes += ss.CodecRawBytes
		st.CodecEncodedBytes += ss.CodecEncodedBytes
		st.Deleted += ss.Deleted
		st.DocsIndexed += ss.DocsIndexed
		st.PendingDocs += ss.PendingDocs
		st.PendingPostings += ss.PendingPostings
		st.CacheHits += ss.CacheHits
		st.CacheMisses += ss.CacheMisses
		st.CacheEvictions += ss.CacheEvictions
		if ss.MaxBucketLoadFactor > st.MaxBucketLoadFactor {
			st.MaxBucketLoadFactor = ss.MaxBucketLoadFactor
		}
		utilWeighted += ss.Utilization * float64(ss.LongLists)
		readsWeighted += ss.AvgReadsPerList * float64(ss.LongLists)
	}
	// Weighted means, guarded so an engine with no long lists (or no cache
	// traffic) reports 0 rather than 0/0 = NaN — NaN poisons JSON encoding
	// and any downstream arithmetic.
	if st.LongLists > 0 {
		st.Utilization = utilWeighted / float64(st.LongLists)
		st.AvgReadsPerList = readsWeighted / float64(st.LongLists)
	}
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		st.CacheHitRate = float64(st.CacheHits) / float64(total)
	}
	if st.CodecEncodedBytes > 0 {
		st.CompressionRatio = float64(st.CodecRawBytes) / float64(st.CodecEncodedBytes)
	}
	st.DeadFraction = deadFraction(int(st.DocsIndexed), st.Deleted)
	return st
}

// ShardStats reports each shard's statistics individually, in shard order —
// the per-shard breakdown behind Stats' engine-wide aggregation, served as
// /stats?shard=i and the "shards" array of /metrics.json. Docs is an
// engine-wide count (the identifier allocator's), so the per-shard entries
// leave it zero; DocsIndexed is the per-shard document count.
func (e *Engine) ShardStats() []Stats {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	out := make([]Stats, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.stats()
	}
	return out
}

// BucketLoadFactor reports how full the short-list bucket space is; when it
// approaches 1.0, frequent evictions degrade the short/long division and a
// RebalanceBuckets call is warranted (the paper's §7 maintenance strategy).
// Every shard's bucket space has the same capacity, so the sharded figure
// is the mean of the per-shard load factors.
func (e *Engine) BucketLoadFactor() float64 {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	switch len(e.shards) {
	case 0:
		return 0
	case 1:
		return e.shards[0].bucketLoadFactor()
	}
	var sum float64
	for _, s := range e.shards {
		sum += s.bucketLoadFactor()
	}
	return sum / float64(len(e.shards))
}

// deadFraction is the dead-posting ratio: deleted documents over indexed
// documents. The denominator floors at the numerator so an index whose
// indexed count is unknown (reopened without a document store) reports 1.0
// when deletions exist — sweeping is always correct, so the unknown case
// errs toward sweeping.
func deadFraction(indexed, deleted int) float64 {
	denom := max(indexed, deleted)
	if denom == 0 {
		return 0
	}
	return float64(deleted) / float64(denom)
}
