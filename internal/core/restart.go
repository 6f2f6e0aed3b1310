package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dualindex/internal/bucket"
	"dualindex/internal/directory"
	"dualindex/internal/disk"
	"dualindex/internal/longlist"
	"dualindex/internal/postings"
)

// ErrNoCheckpoint reports a store that holds no completed checkpoint: its
// files exist but no batch was ever flushed, so the superblock region is
// still zeroed. Callers can treat such a store as a fresh index.
var ErrNoCheckpoint = errors.New("core: store holds no checkpoint")

// Open resumes an index from its last completed batch: the paper's
// restartability property ("the algorithms and data structures are
// constructed so that the incremental update of the index can be restarted
// if it is aborted"). The store must contain the checkpoint written by the
// most recent successful flush; everything applied after that flush is
// simply re-applied by the caller.
//
// Open reads the checkpoint and nothing else: the superblock, then the
// blocks of the bucket region that the bucket image occupies, the
// directory and the deleted list it points to. Long lists stay on disk
// (their chunks, and the whole bucket region, are only reserved in the
// allocator).
// Only the superblock version this engine writes is read; an older one is
// refused, and the index has to be rebuilt.
func Open(cfg Config) (*Index, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("core: Open requires a data store")
	}
	ix, err := New(cfg)
	if err != nil {
		return nil, err
	}
	super, err := ix.array.ReadBlocksAt(nil, 0, 0, superBlocks, disk.TagDirectory)
	if err != nil {
		return nil, err
	}
	if err := ix.restoreSuperblock(super); err != nil {
		return nil, err
	}
	return ix, nil
}

// superblock is a decoded checkpoint root: where the bucket, directory and
// deleted-list images live, and the scalar state a resumed index needs.
type superblock struct {
	batches, nextDisk                  int
	buckets, bucketSize                int
	codec                              postings.CodecID
	bucketRegion, dirRegion, delRegion []regionChunk
	bucketBytes                        int64 // the bucket image's length
	maxDoc                             postings.DocID
	words                              int
}

// superReader reads a superblock image one bounded varint at a time. The
// first failure sticks: later reads return 0 and err reports it.
type superReader struct {
	buf []byte
	off int
	geo disk.Geometry
	err error
}

// next reads one field, refusing values above limit.
func (r *superReader) next(what string, limit uint64) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("core: truncated superblock at byte %d", r.off)
		return 0
	}
	r.off += n
	if v > limit {
		r.err = fmt.Errorf("core: superblock %s %d exceeds %d", what, v, limit)
		return 0
	}
	return v
}

// region reads one region list, every chunk of which must lie inside the
// geometry.
func (r *superReader) region() []regionChunk {
	// A chunk takes at least three bytes: a count the rest of the image
	// cannot hold is corrupt, and must not size the allocation below.
	n := r.next("region chunk count", uint64(len(r.buf)-r.off)/3)
	rs := make([]regionChunk, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		d := r.next("region disk", uint64(r.geo.NumDisks-1))
		block := r.next("region block", uint64(r.geo.BlocksPerDisk-1))
		blocks := r.next("region length", uint64(r.geo.BlocksPerDisk)-block)
		if r.err == nil && blocks == 0 {
			r.err = fmt.Errorf("core: empty superblock region chunk at disk %d block %d", d, block)
		}
		rs = append(rs, regionChunk{int(d), int64(block), int64(blocks)})
	}
	return rs
}

// decodeSuperblock parses a superblock image and validates it against the
// configured geometry. Every count is bounded by the bytes left in the
// image and every location by the disk array, so a corrupt image is
// refused with an error before it can size an allocation or address a
// block — never with a panic.
func decodeSuperblock(buf []byte, geo disk.Geometry, blockPosting int64) (superblock, error) {
	var sb superblock
	r := &superReader{buf: buf, geo: geo}
	magic := r.next("magic", math.MaxUint64)
	switch {
	case r.err != nil:
		return sb, r.err
	case magic == 0:
		return sb, ErrNoCheckpoint
	case magic != superMagic:
		return sb, fmt.Errorf("core: bad superblock magic %#x", magic)
	}
	switch version := r.next("version", math.MaxUint64); {
	case r.err != nil:
		return sb, r.err
	case version < 1:
		return sb, fmt.Errorf("core: invalid superblock version %d", version)
	case version < superVersion:
		return sb, fmt.Errorf("core: superblock version %d predates this engine's %d, which no longer reads it; rebuild the index from its documents", version, superVersion)
	case version > superVersion:
		return sb, fmt.Errorf("core: superblock version %d is newer than this engine's %d", version, superVersion)
	}
	sb.batches = int(r.next("batch count", math.MaxInt32))
	sb.nextDisk = int(r.next("next disk", uint64(geo.NumDisks-1)))
	sb.buckets = int(r.next("bucket count", math.MaxInt32))
	sb.bucketSize = int(r.next("bucket size", math.MaxInt32))
	sb.codec = postings.CodecID(r.next("codec", math.MaxUint8))
	sb.bucketRegion = r.region()
	var regionBlocks int64
	for _, c := range sb.bucketRegion {
		regionBlocks += c.blocks
	}
	sb.bucketBytes = int64(r.next("bucket image bytes", uint64(regionBlocks)*uint64(geo.BlockSize)))
	sb.dirRegion = r.region()
	sb.delRegion = r.region()
	sb.maxDoc = postings.DocID(r.next("high-water document", math.MaxUint32))
	sb.words = int(r.next("word count", math.MaxUint32+1))
	if r.err != nil {
		return sb, r.err
	}
	if sb.buckets == 0 || sb.bucketSize <= 1 {
		return sb, fmt.Errorf("core: corrupt bucket geometry %d×%d in superblock", sb.buckets, sb.bucketSize)
	}
	// The bucket region is reserved at every bucket's full capacity
	// (flushBuckets), which bounds the bucket count by the region.
	if units := int64(sb.buckets) * int64(sb.bucketSize); units > regionBlocks*blockPosting {
		return sb, fmt.Errorf("core: bucket geometry %d×%d overflows its %d-block region",
			sb.buckets, sb.bucketSize, regionBlocks)
	}
	return sb, nil
}

func (ix *Index) restoreSuperblock(buf []byte) error {
	sb, err := decodeSuperblock(buf, ix.cfg.Geometry, ix.cfg.BlockPosting)
	if err != nil {
		return err
	}
	if sb.codec != ix.cfg.Codec {
		// Mixed-codec opens are refused: the codec is part of the on-disk
		// format, fixed when the index is created.
		return fmt.Errorf("core: checkpoint uses codec %v, configuration says %v", sb.codec, ix.cfg.Codec)
	}
	// The checkpoint geometry wins over the configured one: a rebalance may
	// have grown the bucket space since the index was created.
	ix.cfg.Buckets = sb.buckets
	ix.cfg.BucketSize = sb.bucketSize

	// Reserve every checkpointed region whole, and read the blocks of it
	// that hold data as one image, its per-disk chunks concurrently (the
	// bucket region is striped across every disk). A region holds data in
	// chunk order: all of a directory or deleted-list region, the occupied
	// prefix of the bucket region.
	readRegion := func(rs []regionChunk, blocks int64) ([]byte, error) {
		runs := make([]disk.Run, 0, len(rs))
		for _, r := range rs {
			if err := ix.array.Reserve(r.disk, r.block, r.blocks); err != nil {
				return nil, err
			}
			if n := min(r.blocks, blocks); n > 0 {
				runs = append(runs, disk.Run{Disk: r.disk, Block: r.block, Blocks: n})
				blocks -= n
			}
		}
		return ix.array.ReadRuns(runs, disk.TagDirectory, ix.cfg.FlushWorkers)
	}
	bucketImage, err := readRegion(sb.bucketRegion, ix.cfg.Geometry.BlocksFor(sb.bucketBytes))
	if err != nil {
		return fmt.Errorf("core: restoring buckets: %w", err)
	}
	dirImage, err := readRegion(sb.dirRegion, math.MaxInt64)
	if err != nil {
		return fmt.Errorf("core: restoring directory: %w", err)
	}
	delImage, err := readRegion(sb.delRegion, math.MaxInt64)
	if err != nil {
		return fmt.Errorf("core: restoring deleted list: %w", err)
	}

	// Decode buckets (stored back to back in bucket order).
	bs, err := bucket.NewSet(bucket.Config{
		NumBuckets:    ix.cfg.Buckets,
		BucketSize:    ix.cfg.BucketSize,
		TrackPostings: true,
	})
	if err != nil {
		return err
	}
	// The image must decode to exactly its recorded length: the bytes past
	// it are block padding, or whatever the region's blocks held before.
	bucketImage = bucketImage[:sb.bucketBytes]
	pos := 0
	for i := 0; i < ix.cfg.Buckets; i++ {
		n, err := bs.DecodeBucket(i, bucketImage[pos:])
		if err != nil {
			return fmt.Errorf("core: bucket %d: %w", i, err)
		}
		pos += n
	}
	if pos != len(bucketImage) {
		return fmt.Errorf("core: bucket image decodes to %d of its %d recorded bytes", pos, len(bucketImage))
	}

	var dir *directory.Dir
	if ix.cfg.Codec != postings.CodecRaw {
		dir, err = directory.DecodeExt(dirImage)
	} else {
		dir, err = directory.Decode(dirImage)
	}
	if err != nil {
		return fmt.Errorf("core: directory: %w", err)
	}
	// Reserve every long-list chunk so the allocator agrees with the
	// directory.
	for _, w := range dir.Words() {
		for _, c := range dir.Chunks(w) {
			if err := ix.array.Reserve(c.Disk, c.Block, c.Blocks); err != nil {
				return fmt.Errorf("core: long list chunk of word %d: %w", w, err)
			}
		}
	}
	bc, err := postings.NewBlockCodec(ix.cfg.Codec)
	if err != nil {
		return err
	}
	long, err := longlist.NewManagerCodec(ix.cfg.Policy, ix.array, dir, ix.cfg.BlockPosting, bc)
	if err != nil {
		return err
	}
	long.SetNextDisk(sb.nextDisk)

	if len(delImage) > 0 {
		if ix.deleted, err = decodeDocSet(delImage); err != nil {
			return err
		}
	}

	ix.buckets = bs
	ix.dir = dir
	ix.long = long
	ix.batches = sb.batches
	ix.maxDoc = sb.maxDoc
	ix.words = sb.words
	ix.bucketRegion = sb.bucketRegion
	ix.bucketBytes = sb.bucketBytes
	ix.dirRegion = sb.dirRegion
	ix.delRegion = sb.delRegion
	return nil
}
