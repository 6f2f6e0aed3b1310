package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"dualindex/internal/disk"
	"dualindex/internal/postings"
)

// flush ends a batch update the way the paper does: all buckets are written
// to disk (striped, one sequential write per disk), the directory and the
// deleted-document list are written, a superblock recording their locations
// is written so the build can restart, the previous images are returned to
// free space, and the RELEASE list of the long-list manager is drained.
// Every batch, sweep and rebalance ends here: the bucket stripes join the
// long-list writes already staged in the array's write plan, and
// disk.Array.Commit writes them all, in plan order, before the checkpoint.
//
// st, when non-nil, receives the wall-clock durations of the flush's phases
// (bucket staging, commit, checkpoint, release) — the per-phase numbers
// the observability layer exports. Checkpoints outside a batch (Sweep,
// rebalance, CheckpointDeleted) pass nil.
func (ix *Index) flush(st *UpdateStats) error {
	if st == nil {
		st = &UpdateStats{}
	}
	oldBuckets, oldDir, oldDel := ix.bucketRegion, ix.dirRegion, ix.delRegion

	bucketStart := time.Now()
	if err := ix.flushBuckets(); err != nil {
		return err
	}
	st.BucketFlushDur = time.Since(bucketStart)
	applyStart := time.Now()
	if err := ix.array.Commit(); err != nil {
		return err
	}
	st.LongApplyDur = time.Since(applyStart)
	checkpointStart := time.Now()
	if err := ix.flushDirectory(); err != nil {
		return err
	}
	if err := ix.flushDeleted(); err != nil {
		return err
	}
	if err := ix.writeSuperblock(); err != nil {
		return err
	}
	st.CheckpointDur = time.Since(checkpointStart)
	releaseStart := time.Now()
	// "At this time, the disk blocks for the previous buckets and directory
	// are returned to free space."
	for _, r := range oldBuckets {
		ix.array.Free(r.disk, r.block, r.blocks)
	}
	for _, r := range oldDir {
		ix.array.Free(r.disk, r.block, r.blocks)
	}
	for _, r := range oldDel {
		ix.array.Free(r.disk, r.block, r.blocks)
	}
	// "In the case of the whole strategy, the old long lists on the RELEASE
	// list are returned to free space."
	ix.long.EndBatch()
	if err := ix.array.Sync(); err != nil {
		return err
	}
	ix.array.EndBatch()
	ix.dirty = false
	st.ReleaseDur = time.Since(releaseStart)
	return nil
}

// flushBuckets stages the whole fixed-size bucket region, striped evenly
// across all disks: one sequential write per disk, as in the paper's trace
// ("update bucket disk 0 id 0 size 1678" once per disk). The trace records
// every stripe whole; the store receives only the blocks the encoded image
// occupies, and the superblock records the image's length. The buckets
// hold their lists encoded, so the image is their bodies copied into one
// buffer, allocated once at its padded size.
func (ix *Index) flushBuckets() error {
	total := ix.bucketRegionBlocks()
	n := int64(ix.cfg.Geometry.NumDisks)
	perDisk := (total + n - 1) / n
	bs := int64(ix.cfg.Geometry.BlockSize)

	var image []byte
	if ix.cfg.Store != nil {
		size := int64(ix.buckets.EncodedSize())
		if size > total*bs {
			return fmt.Errorf("core: bucket image %d bytes exceeds region of %d blocks", size, total)
		}
		ix.bucketBytes = size
		// The image fills whole blocks, zero past its end, so every stripe
		// is a block-aligned piece of it that the store takes as it is.
		image = make([]byte, 0, ix.cfg.Geometry.BlocksFor(size)*bs)
		for i := 0; i < ix.buckets.NumBuckets(); i++ {
			image = ix.buckets.EncodeBucket(i, image)
		}
		image = image[:cap(image)]
	}
	// A fresh slice, never the old backing array: flush() holds the previous
	// region's chunks for deallocation, and they must not be overwritten.
	ix.bucketRegion = make([]regionChunk, 0, ix.cfg.Geometry.NumDisks)
	bytesPerDisk := perDisk * bs
	for d := 0; d < ix.cfg.Geometry.NumDisks; d++ {
		block, err := ix.array.Alloc(d, perDisk)
		if err != nil {
			return fmt.Errorf("core: bucket flush: %w", err)
		}
		lo := min(int64(d)*bytesPerDisk, int64(len(image)))
		piece := image[lo:min(lo+bytesPerDisk, int64(len(image)))]
		if err := ix.array.Stage(d, block, perDisk, piece, disk.TagBucket); err != nil {
			return err
		}
		ix.bucketRegion = append(ix.bucketRegion, regionChunk{d, block, perDisk})
	}
	return nil
}

// flushDirectory writes the directory image as one chunk, rotating the home
// disk across batches.
func (ix *Index) flushDirectory() error {
	var image []byte
	size := int64(1)
	if ix.cfg.Store != nil {
		if ix.cfg.Codec != postings.CodecRaw {
			// Codec-packed chunks carry their encoded extent; raw checkpoints
			// keep the original five-field format, byte for byte.
			image = ix.dir.EncodeExt(nil)
		} else {
			image = ix.dir.Encode(nil)
		}
		size = int64(len(image))
	} else {
		size = int64(ix.dir.EncodedSize())
	}
	blocks := ix.cfg.Geometry.BlocksFor(size)
	if blocks == 0 {
		blocks = 1 // an empty directory still costs its write, as in Figure 6
	}
	d := ix.batches % ix.cfg.Geometry.NumDisks
	block, err := ix.array.Alloc(d, blocks)
	if err != nil {
		return fmt.Errorf("core: directory flush: %w", err)
	}
	if err := ix.array.WriteBlocksAt(d, block, blocks, image, disk.TagDirectory); err != nil {
		return err
	}
	ix.dirRegion = []regionChunk{{d, block, blocks}}
	return nil
}

// flushDeleted writes the deleted-document filter list, if any.
func (ix *Index) flushDeleted() error {
	ix.delRegion = nil
	if len(ix.deleted) == 0 {
		return nil
	}
	image := encodeDocSet(ix.deleted)
	blocks := ix.cfg.Geometry.BlocksFor(int64(len(image)))
	d := (ix.batches + 1) % ix.cfg.Geometry.NumDisks
	block, err := ix.array.Alloc(d, blocks)
	if err != nil {
		return fmt.Errorf("core: deleted-list flush: %w", err)
	}
	if err := ix.array.WriteBlocksAt(d, block, blocks, image, disk.TagDirectory); err != nil {
		return err
	}
	ix.delRegion = []regionChunk{{d, block, blocks}}
	return nil
}

// Superblock layout constants. Version 2 added the codec field after the
// bucket geometry; version 3 added the high-water document identifier after
// the deleted-list region; version 4 added the bucket image's byte count
// after the bucket region; version 5 added the word count after the
// high-water document identifier. Only version 5 is read.
const (
	superMagic   = 0x494C5549 // "IULI": Inverted-List Update
	superVersion = 5
)

// writeSuperblock records where everything lives. It is written last, so a
// crash mid-flush leaves the previous checkpoint intact.
func (ix *Index) writeSuperblock() error {
	var buf []byte
	if ix.cfg.Store != nil {
		buf = ix.encodeSuperblock()
		if int64(len(buf)) > superBlocks*int64(ix.cfg.Geometry.BlockSize) {
			return fmt.Errorf("core: superblock image %d bytes exceeds %d blocks", len(buf), superBlocks)
		}
	}
	return ix.array.WriteBlocksAt(0, 0, superBlocks, buf, disk.TagDirectory)
}

func (ix *Index) encodeSuperblock() []byte {
	var b []byte
	b = binary.AppendUvarint(b, superMagic)
	b = binary.AppendUvarint(b, superVersion)
	b = binary.AppendUvarint(b, uint64(ix.batches+1)) // batches after this flush
	b = binary.AppendUvarint(b, uint64(ix.long.NextDisk()))
	// Bucket geometry travels in the checkpoint because RebalanceBuckets
	// can change it after the index was created.
	b = binary.AppendUvarint(b, uint64(ix.cfg.Buckets))
	b = binary.AppendUvarint(b, uint64(ix.cfg.BucketSize))
	b = binary.AppendUvarint(b, uint64(ix.cfg.Codec))
	b = appendRegion(b, ix.bucketRegion)
	b = binary.AppendUvarint(b, uint64(ix.bucketBytes))
	b = appendRegion(b, ix.dirRegion)
	b = appendRegion(b, ix.delRegion)
	b = binary.AppendUvarint(b, uint64(ix.maxDoc))
	b = binary.AppendUvarint(b, uint64(ix.words))
	return b
}

func appendRegion(b []byte, rs []regionChunk) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for _, r := range rs {
		b = binary.AppendUvarint(b, uint64(r.disk))
		b = binary.AppendUvarint(b, uint64(r.block))
		b = binary.AppendUvarint(b, uint64(r.blocks))
	}
	return b
}

// encodeDocSet serialises the sorted deleted-document list: a count, then
// the identifiers delta-coded, every gap a varint of at least 1.
func encodeDocSet(docs []postings.DocID) []byte {
	b := binary.AppendUvarint(nil, uint64(len(docs)))
	prev := uint64(0)
	for _, d := range docs {
		b = binary.AppendUvarint(b, uint64(d)-prev)
		prev = uint64(d)
	}
	return b
}

// decodeDocSet parses an encodeDocSet image, which may be followed by block
// padding. It refuses any image encodeDocSet cannot produce — a zero gap
// after the first identifier (a duplicate), an identifier beyond the 32-bit
// DocID range, an overlong varint — so a decoded list is sorted and
// duplicate-free and re-encodes to exactly the bytes it was read from. The
// first identifier is coded as itself and may be 0: the engine numbers
// documents from 1, but a core index accepts document 0.
func decodeDocSet(buf []byte) ([]postings.DocID, error) {
	n, off := postings.Uvarint(buf)
	if off <= 0 {
		return nil, fmt.Errorf("core: corrupt deleted list header")
	}
	// Every identifier takes at least one byte: a larger count is corrupt,
	// and must not size the allocation below.
	if n > uint64(len(buf)-off) {
		return nil, fmt.Errorf("core: deleted list count %d exceeds its %d-byte image", n, len(buf)-off)
	}
	docs := make([]postings.DocID, 0, n)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		gap, k := postings.Uvarint(buf[off:])
		if k <= 0 {
			return nil, fmt.Errorf("core: corrupt deleted list at %d", i)
		}
		if gap == 0 && i > 0 {
			return nil, fmt.Errorf("core: deleted list repeats identifier %d at %d", prev, i)
		}
		if gap > math.MaxUint32-prev {
			return nil, fmt.Errorf("core: deleted list identifier at %d exceeds the 32-bit range", i)
		}
		off += k
		prev += gap
		docs = append(docs, postings.DocID(prev))
	}
	return docs, nil
}
