package longlist

import (
	"fmt"

	"dualindex/internal/directory"
	"dualindex/internal/disk"
	"dualindex/internal/postings"
)

// Codec-mode update and read paths. The Figure 2 algorithm is unchanged —
// in-place when the reserved space admits it, else the policy's style — but
// blocks hold codec-encoded postings, so the data extent of a chunk is the
// directory's EncBlocks rather than a function of its posting count, and
// every pack runs through the block codec beneath the same read and write
// accounting the raw path uses. Compressed packs occupy fewer blocks, so the
// recorded I/O shrinks with the data: that is the measurement the codec
// exists for.

// packWindow encodes count postings of l starting at from and bumps the
// compression counters.
func (m *Manager) packWindow(l *postings.List, from, count int) ([]byte, int64) {
	img, blocks, payload := postings.PackBlocks(m.codec, l, from, count, m.blockSize)
	m.compRaw.Add(int64(count) * PostingBytes)
	m.compEnc.Add(int64(payload))
	return img, int64(blocks)
}

// inPlaceCodec implements UPDATE(M) on an encoded chunk: read the chunk's
// final data block, re-pack its postings together with the update, and write
// the re-packed tail back. The repack size decides the directory update, so
// the tail is read and packed while planning. Reports false when the result
// would overflow the chunk's allocation; the tail read is then still
// recorded, and nothing is written.
func (m *Manager) inPlaceCodec(w postings.WordID, last directory.ChunkRef, count int64, list *postings.List) (bool, error) {
	used := last.EncBlocks
	if used < 1 || last.Postings <= 0 {
		return false, nil // nothing packed yet; let the style path lay it out
	}
	tailBlock := last.Block + used - 1
	buf, err := m.array.ReadBlocksAt(nil, last.Disk, tailBlock, 1, disk.TagLong)
	if err != nil {
		return false, err
	}
	tail, err := m.codec.DecodeBlock(nil, buf)
	if err != nil {
		return false, fmt.Errorf("longlist: word %d tail block at %d/%d: %w", w, last.Disk, tailBlock, err)
	}
	comb := postings.NewList(tail)
	if err := comb.Append(list); err != nil {
		return false, fmt.Errorf("longlist: word %d: %w", w, err)
	}
	img, blocks := m.packWindow(comb, 0, comb.Len())
	if used-1+blocks > last.Blocks {
		// Doesn't fit the allocation; undo the counter bump (the pack is
		// discarded) and fall through to the style path.
		m.compRaw.Add(-int64(comb.Len()) * PostingBytes)
		m.compEnc.Add(-int64(payloadOf(img, m.blockSize)))
		return false, nil
	}
	if err := m.array.Stage(last.Disk, tailBlock, blocks, img, disk.TagLong); err != nil {
		return false, err
	}
	return true, m.dir.GrowLastChunkEnc(w, count, used-1+blocks)
}

// payloadOf recovers the non-padding payload size of a packed image by
// trimming each block's trailing zeros — exact because no codec block ends
// in a zero byte (varint terminators and bit streams are padded with zeros
// only by the packer).
func payloadOf(img []byte, blockSize int) int {
	total := 0
	for off := 0; off < len(img); off += blockSize {
		end := off + blockSize
		if end > len(img) {
			end = len(img)
		}
		for end > off && img[end-1] == 0 {
			end--
		}
		total += end - off
	}
	return total
}

// fillCodec: pack the update into fixed-size extents, one write per extent,
// each on the next disk round-robin.
func (m *Manager) fillCodec(w postings.WordID, count int64, list *postings.List) error {
	from := 0
	for from < int(count) {
		img, blocks, n, payload := postings.PackBlocksLimit(
			m.codec, list, from, int(count)-from, m.blockSize, int(m.policy.ExtentBlocks))
		d, block, err := m.alloc(m.policy.ExtentBlocks)
		if err != nil {
			return err
		}
		m.compRaw.Add(int64(n) * PostingBytes)
		m.compEnc.Add(int64(payload))
		if err := m.array.Stage(d, block, int64(blocks), img, disk.TagLong); err != nil {
			return err
		}
		// Estimate the extent's posting capacity from its achieved density,
		// so the reserved-space gate has a basis comparable to the raw path.
		capacity := int64(n)
		if free := m.policy.ExtentBlocks - int64(blocks); free > 0 {
			capacity += free * ((int64(n) + int64(blocks) - 1) / int64(blocks))
		}
		ref := directory.ChunkRef{
			Disk: d, Block: block, Blocks: m.policy.ExtentBlocks,
			Postings: int64(n), Capacity: capacity, EncBlocks: int64(blocks),
		}
		if err := m.dir.AppendChunk(w, ref); err != nil {
			return err
		}
		from += n
	}
	return nil
}

// packReserved is WRITE_RESERVED(a) for encoded postings: it encodes list
// (x postings), sizes the chunk by the allocation strategy f(x) translated
// into blocks at the pack's achieved density, and stages the write of the
// encoded blocks. upd is the in-memory update size driving the adaptive
// strategy.
func (m *Manager) packReserved(list *postings.List, x, upd int64) (directory.ChunkRef, error) {
	img, need := m.packWindow(list, 0, int(x))
	density := (x + need - 1) / need // postings per encoded block, rounded up
	var capacity int64
	switch m.policy.Alloc {
	case AllocConstant:
		capacity = x + int64(m.policy.K)
	case AllocBlock:
		k := int64(m.policy.K)
		if k < 1 {
			k = 1
		}
		capacity = x + (k*((need+k-1)/k)-need)*density
	case AllocProportional:
		capacity = int64(m.policy.K * float64(x))
	case AllocAdaptive:
		capacity = x + int64(m.policy.K*float64(upd))
	}
	if capacity < x {
		capacity = x
	}
	blocks := need + (capacity-x+density-1)/density
	d, block, err := m.alloc(blocks)
	if err != nil {
		return directory.ChunkRef{}, err
	}
	if err := m.array.Stage(d, block, need, img, disk.TagLong); err != nil {
		return directory.ChunkRef{}, err
	}
	return directory.ChunkRef{
		Disk: d, Block: block, Blocks: blocks,
		Postings: x, Capacity: capacity, EncBlocks: need,
	}, nil
}
