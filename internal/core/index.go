// Package core implements the paper's primary contribution: the
// dual-structure inverted index with incremental in-place updates. It ties
// together the fixed-size buckets for short lists, the chunk directory and
// allocation policies for long lists, and the disk array, and adds the
// batch-update protocol of Section 2: in-memory lists are applied word by
// word, bucket overflows promote short lists to long lists, and at every
// batch boundary the buckets, the directory and a superblock are flushed so
// that an aborted incremental update can be restarted.
package core

import (
	"fmt"
	"time"

	"dualindex/internal/bucket"
	"dualindex/internal/corpus"
	"dualindex/internal/directory"
	"dualindex/internal/disk"
	"dualindex/internal/longlist"
	"dualindex/internal/postings"
)

// Config assembles an index. The defaults (see DefaultConfig) follow the
// paper's Table 4 base case, scaled to the synthetic corpus.
type Config struct {
	// Buckets and BucketSize size the short-list structure (Table 4
	// variables Buckets and BucketSize; capacity is in word+posting units).
	Buckets    int
	BucketSize int
	// BlockPosting is the number of postings per disk block (Table 4
	// variable BlockPosting); it implicitly models posting compression.
	// With a real data store it must be Geometry.BlockSize/8.
	BlockPosting int64
	// Geometry describes the disk array.
	Geometry disk.Geometry
	// Policy is the long-list allocation policy.
	Policy longlist.Policy
	// Store, when non-nil, persists real block contents so the index can
	// answer queries and restart from a checkpoint. When nil the index runs
	// in the paper's simulation mode: exact I/O traces, no data.
	Store disk.BlockStore
	// Codec selects the long-list block codec. CodecRaw (the default) keeps
	// the fixed 8-byte records — and, in simulation mode, byte-identical
	// I/O traces. The compressing codecs require a Store, are recorded in
	// every checkpoint, and are fixed for the life of the index.
	Codec postings.CodecID
	// FlushWorkers is the width of the executor that writes each flush's
	// plan. Planning — allocation, directory mutation, trace recording,
	// every read and every encode — always runs on the caller, in update
	// order, and stages its writes; the executor then writes the staged
	// steps. 1 runs them all on the caller; any other value (0 = auto) runs
	// one goroutine per disk that has steps — the paper's "one sequential
	// write per disk", actually overlapped. Both widths write the same steps.
	FlushWorkers int
}

// superBlocks is the number of blocks at the start of disk 0 reserved for
// the checkpoint superblock.
const superBlocks = 4

// Index is the dual-structure inverted index.
type Index struct {
	cfg     Config
	array   *disk.Array
	buckets *bucket.Set
	dir     *directory.Dir
	long    *longlist.Manager

	// Locations of the current on-disk images of the buckets, the
	// directory, and the deleted-document list, re-fleshed at every flush.
	bucketRegion []regionChunk
	dirRegion    []regionChunk
	delRegion    []regionChunk

	// deleted is the paper's "list of deleted document identifiers",
	// sorted ascending. A Snapshot shares it; deletedShared then makes the
	// next Delete copy it before writing, so the snapshot's view never
	// changes (the rule bucket.Set.Clone applies to buckets).
	deleted       []postings.DocID
	deletedShared bool
	// dirty records that deleted or maxDoc has changed since the last
	// checkpoint, so Checkpoint has something to make durable.
	dirty bool

	// maxDoc is the high-water document identifier: the largest one any
	// applied update carried, or RaiseMaxDoc set. Checkpointed in the
	// superblock, it survives the sweep that removes that document's
	// postings.
	maxDoc postings.DocID

	batches int
}

type regionChunk struct {
	disk          int
	block, blocks int64
}

// UpdateStats records one batch update's behaviour — the quantities behind
// the paper's Figure 7 and the per-update curves.
type UpdateStats struct {
	Batch       int
	Words       int // word-occurrence pairs in the update
	Postings    int64
	NewWords    int // previously unseen words
	BucketWords int // words already in a bucket
	LongWords   int // words with long lists
	Evictions   int // short lists promoted to long lists
	ReadOps     int64
	WriteOps    int64
	// Cumulative index state after this update.
	CumOps          int64
	Utilization     float64
	AvgReadsPerList float64
	LongLists       int
	// Wall-clock phase durations of this update — where the batch spent
	// its time. Always recorded (a handful of clock reads per batch, never
	// per word); the engine's observability layer turns them into
	// histograms and trace spans.
	PlanDur        time.Duration // per-word apply: allocation, directory and bucket bookkeeping, reads, encoding, trace recording
	LongApplyDur   time.Duration // the executor writing the flush's staged plan: long-list chunks and bucket stripes
	BucketFlushDur time.Duration // encoding and staging the striped bucket region
	CheckpointDur  time.Duration // directory + deleted list + superblock writes
	ReleaseDur     time.Duration // freeing previous images, RELEASE drain, store sync
}

// New creates an empty index.
func New(cfg Config) (*Index, error) {
	if cfg.Buckets <= 0 || cfg.BucketSize <= 1 {
		return nil, fmt.Errorf("core: bad bucket configuration %d×%d", cfg.Buckets, cfg.BucketSize)
	}
	array, err := disk.NewArray(cfg.Geometry, cfg.Store)
	if err != nil {
		return nil, err
	}
	bs, err := bucket.NewSet(bucket.Config{
		NumBuckets:    cfg.Buckets,
		BucketSize:    cfg.BucketSize,
		TrackPostings: cfg.Store != nil,
	})
	if err != nil {
		return nil, err
	}
	dir := directory.New()
	codec, err := postings.NewBlockCodec(cfg.Codec)
	if err != nil {
		return nil, err
	}
	if codec != nil && cfg.Store == nil {
		return nil, fmt.Errorf("core: codec %v requires a data store (simulation mode is raw-only)", cfg.Codec)
	}
	long, err := longlist.NewManagerCodec(cfg.Policy, array, dir, cfg.BlockPosting, codec)
	if err != nil {
		return nil, err
	}
	// The superblock home is never available to the allocator.
	if err := array.Reserve(0, 0, superBlocks); err != nil {
		return nil, err
	}
	return &Index{
		cfg:     cfg,
		array:   array,
		buckets: bs,
		dir:     dir,
		long:    long,
	}, nil
}

// Array exposes the disk array (trace, op counts, free space).
func (ix *Index) Array() *disk.Array { return ix.array }

// Buckets exposes the short-list structure.
func (ix *Index) Buckets() *bucket.Set { return ix.buckets }

// Directory exposes the long-list directory.
func (ix *Index) Directory() *directory.Dir { return ix.dir }

// LongLists exposes the long-list manager.
func (ix *Index) LongLists() *longlist.Manager { return ix.long }

// Batches reports how many batch updates have been applied.
func (ix *Index) Batches() int { return ix.batches }

// MaxDoc reports the high-water document identifier: the largest one any
// update applied to this index carried, deleted and swept documents
// included. It is 0 in simulation mode, where updates carry no lists.
func (ix *Index) MaxDoc() postings.DocID { return ix.maxDoc }

// RaiseMaxDoc lifts the high-water document identifier to doc, for an index
// that must continue an identifier sequence past documents it never held.
// The next checkpoint records it.
func (ix *Index) RaiseMaxDoc(doc postings.DocID) {
	if doc > ix.maxDoc {
		ix.maxDoc = doc
		ix.dirty = true
	}
}

// WordUpdate is one word's contribution to a batch update: the in-memory
// inverted list built from the arriving documents. List may be nil in
// simulation mode.
//
// ApplyUpdate only reads List: a bucket stores a clone of it, and the
// long-list writers copy its postings into block images. The caller keeps
// ownership, so other goroutines may keep reading the same list while the
// update applies (the engine's mid-flush queries do).
type WordUpdate struct {
	Word  postings.WordID
	Count int
	List  *postings.List
}

// UpdatesFromBatch converts a generated corpus batch into word updates,
// with real posting lists when withPostings is set.
func UpdatesFromBatch(b *corpus.Batch, withPostings bool) []WordUpdate {
	if !withPostings {
		wcs := b.Update()
		out := make([]WordUpdate, len(wcs))
		for i, wc := range wcs {
			out[i] = WordUpdate{Word: wc.Word, Count: wc.Count}
		}
		return out
	}
	docs := map[postings.WordID][]postings.DocID{}
	for _, d := range b.Docs {
		for _, w := range d.Words {
			docs[w] = append(docs[w], d.ID)
		}
	}
	wcs := b.Update()
	out := make([]WordUpdate, len(wcs))
	for i, wc := range wcs {
		out[i] = WordUpdate{Word: wc.Word, Count: wc.Count, List: postings.FromDocs(docs[wc.Word])}
	}
	return out
}

// ApplyUpdate applies one batch update to the index and flushes the buckets,
// the directory, the deleted-document list and the superblock, completing
// the batch. It implements Section 2's per-word algorithm: words with long
// lists append to them; all others go through their bucket, and overflow
// evictions become long lists. The word loop stages every long-list write in
// the array's write plan, and flush writes the plan before the checkpoint.
func (ix *Index) ApplyUpdate(updates []WordUpdate) (UpdateStats, error) {
	st := UpdateStats{Batch: ix.batches, Words: len(updates)}
	r0, w0 := ix.array.ReadOps(), ix.array.WriteOps()
	planStart := time.Now()
	for _, u := range updates {
		if u.Count <= 0 {
			return st, fmt.Errorf("core: word %d update with count %d", u.Word, u.Count)
		}
		st.Postings += int64(u.Count)
		switch {
		case ix.dir.Has(u.Word):
			st.LongWords++
		case ix.buckets.Contains(u.Word):
			st.BucketWords++
		default:
			st.NewWords++
		}
		if u.List != nil && u.List.MaxDoc() > ix.maxDoc {
			ix.maxDoc = u.List.MaxDoc()
		}

		if ix.dir.Has(u.Word) {
			if err := ix.long.Append(u.Word, int64(u.Count), u.List); err != nil {
				return st, err
			}
			continue
		}
		evs, err := ix.buckets.Add(u.Word, u.Count, u.List)
		if err != nil {
			return st, err
		}
		for _, ev := range evs {
			st.Evictions++
			if err := ix.long.Append(ev.Word, int64(ev.Count), ev.List); err != nil {
				return st, err
			}
		}
	}
	st.PlanDur = time.Since(planStart)
	if err := ix.flush(&st); err != nil {
		return st, err
	}
	ix.batches++
	st.ReadOps = ix.array.ReadOps() - r0
	st.WriteOps = ix.array.WriteOps() - w0
	st.CumOps = ix.array.Ops()
	st.Utilization = ix.dir.Utilization()
	st.AvgReadsPerList = ix.dir.AvgReadsPerList()
	st.LongLists = ix.dir.NumWords()
	return st, nil
}

// ApplyBatch is ApplyUpdate for a generated corpus batch.
func (ix *Index) ApplyBatch(b *corpus.Batch) (UpdateStats, error) {
	return ix.ApplyUpdate(UpdatesFromBatch(b, ix.cfg.Store != nil))
}

// bucketRegionBlocks reports the fixed size of the on-disk bucket region in
// blocks: the full capacity of all buckets, in posting units, converted at
// BlockPosting per block.
func (ix *Index) bucketRegionBlocks() int64 {
	units := int64(ix.cfg.Buckets) * int64(ix.cfg.BucketSize)
	return (units + ix.cfg.BlockPosting - 1) / ix.cfg.BlockPosting
}
