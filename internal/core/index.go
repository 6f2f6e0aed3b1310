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
	// UseBuddy swaps the paper's first-fit free-space management for the
	// buddy system (the related-work alternative), for the allocator
	// ablation experiment.
	UseBuddy bool
	// Store, when non-nil, persists real block contents so the index can
	// answer queries and restart from a checkpoint. When nil the index runs
	// in the paper's simulation mode: exact I/O traces, no data.
	Store disk.BlockStore
	// Codec selects the long-list block codec. CodecRaw (the default) keeps
	// the fixed 8-byte records — and, in simulation mode, byte-identical
	// I/O traces. The compressing codecs require a Store, are recorded in
	// every checkpoint, and are fixed for the life of the index.
	Codec postings.CodecID
	// FlushWorkers bounds how many of a checkpoint region's chunks Open
	// reads at once (disk.Array.ReadRuns). The trace records them in region
	// order at every width.
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
	// bucketBytes is the length of the encoded bucket image at the start
	// of bucketRegion: the occupied prefix Open reads back.
	bucketBytes int64

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
	// words is one more than the largest word identifier any applied
	// update carried, checkpointed beside maxDoc.
	words int

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
	LongApplyDur   time.Duration // Commit writing the flush's staged plan: long-list chunks and bucket stripes
	BucketFlushDur time.Duration // encoding and staging the striped bucket region
	CheckpointDur  time.Duration // directory + deleted list + superblock writes
	ReleaseDur     time.Duration // freeing previous images, RELEASE drain, store sync
}

// Fractions reports the update's fractions of new, bucket and long words
// (Figure 7).
func (st UpdateStats) Fractions() (newF, bucketF, longF float64) {
	if st.Words == 0 {
		return 0, 0, 0
	}
	n := float64(st.Words)
	return float64(st.NewWords) / n, float64(st.BucketWords) / n, float64(st.LongWords) / n
}

// New creates an empty index.
func New(cfg Config) (*Index, error) {
	if cfg.Buckets <= 0 || cfg.BucketSize <= 1 {
		return nil, fmt.Errorf("core: bad bucket configuration %d×%d", cfg.Buckets, cfg.BucketSize)
	}
	newAlloc := func(total int64) disk.Allocator { return disk.NewFreeList(total) }
	if cfg.UseBuddy {
		newAlloc = func(total int64) disk.Allocator { return disk.NewBuddy(total) }
	}
	array, err := disk.NewArrayWith(cfg.Geometry, cfg.Store, newAlloc)
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

// Words reports one more than the largest word identifier any update
// applied to this index carried: how many words its lists may refer to.
func (ix *Index) Words() int { return ix.words }

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
// ApplyUpdate only reads List: a bucket stores it encoded, and the
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

// BucketStage is the first of the paper's two update stages (§4, Figure 3:
// compute buckets). It runs Section 2's per-word algorithm over one batch
// update: a word whose list is long (isLong) goes to toLong; every other word
// goes through its bucket in set, and each short list the bucket evicts goes
// to toLong, in eviction order. toLong must make its word long before it
// returns: a word evicted by an earlier word of the batch may come later in
// the same batch, and must then take the long path. The stats count the
// batch's words by category and its evictions; the rest is the disk stage's.
func BucketStage(set *bucket.Set, updates []WordUpdate, isLong func(postings.WordID) bool, toLong func(WordUpdate) error) (UpdateStats, error) {
	st := UpdateStats{Words: len(updates)}
	for _, u := range updates {
		if u.Count <= 0 {
			return st, fmt.Errorf("core: word %d update with count %d", u.Word, u.Count)
		}
		st.Postings += int64(u.Count)
		if isLong(u.Word) {
			st.LongWords++
			if err := toLong(u); err != nil {
				return st, err
			}
			continue
		}
		if set.Contains(u.Word) {
			st.BucketWords++
		} else {
			st.NewWords++
		}
		evs, err := set.Add(u.Word, u.Count, u.List)
		if err != nil {
			return st, err
		}
		for _, ev := range evs {
			st.Evictions++
			if err := toLong(WordUpdate{Word: ev.Word, Count: ev.Count, List: ev.List}); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

// ApplyUpdate applies one batch update to the index and flushes the buckets,
// the directory, the deleted-document list and the superblock, completing
// the batch: the bucket stage against the index's own buckets and
// directory, then the disk stage's flush. Each long-list update is appended
// as the bucket stage hands it over, so an evicted word is long for the
// rest of the batch. The word loop stages every long-list write in the
// array's write plan, and flush writes the plan before the checkpoint.
func (ix *Index) ApplyUpdate(updates []WordUpdate) (UpdateStats, error) {
	return ix.batch(func() (UpdateStats, error) {
		for _, u := range updates {
			if u.List != nil && u.List.MaxDoc() > ix.maxDoc {
				ix.maxDoc = u.List.MaxDoc()
			}
			ix.words = max(ix.words, int(u.Word)+1)
		}
		return BucketStage(ix.buckets, updates, ix.dir.Has, ix.appendLong)
	})
}

// DiskStage is the second of the paper's two update stages (compute
// disks): it appends one batch's long-list updates, in order, and ends the
// batch with ApplyUpdate's flush. Fed what BucketStage handed to toLong
// for each batch, over a bucket set configured as this index's, it writes
// the trace ApplyUpdate writes; the index's own buckets stay empty, and
// the word counts in the stats are the bucket stage's to report.
func (ix *Index) DiskStage(long []WordUpdate) (UpdateStats, error) {
	return ix.batch(func() (UpdateStats, error) {
		for _, u := range long {
			if err := ix.appendLong(u); err != nil {
				return UpdateStats{}, err
			}
		}
		return UpdateStats{}, nil
	})
}

func (ix *Index) appendLong(u WordUpdate) error {
	return ix.long.Append(u.Word, int64(u.Count), u.List)
}

// batch runs one batch's word loop, plan, then the tail both stages share:
// the flush, and the batch's I/O and the index's state after it.
func (ix *Index) batch(plan func() (UpdateStats, error)) (UpdateStats, error) {
	r0, w0 := ix.array.ReadOps(), ix.array.WriteOps()
	planStart := time.Now()
	st, err := plan()
	st.Batch = ix.batches
	if err != nil {
		return st, err
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
