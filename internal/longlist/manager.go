package longlist

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"dualindex/internal/directory"
	"dualindex/internal/disk"
	"dualindex/internal/postings"
)

// PostingBytes is the fixed on-disk record size of one long-list posting
// when real data is stored: a uint32 document identifier and a uint32
// frequency. (Each block of a long list contains postings for only one
// word, so blocks pack records back to back.)
const PostingBytes = 8

// Manager applies one allocation policy to all long lists of an index: it
// owns the round-robin disk cursor, the RELEASE list, and the Figure 2
// update algorithm, operating against a disk array and the chunk directory.
type Manager struct {
	policy       Policy
	array        *disk.Array
	dir          *directory.Dir
	blockPosting int64 // postings per block (paper variable BlockPosting)

	// codec, when non-nil, packs long-list blocks through a compressing
	// block codec (manager_codec.go) instead of the fixed 8-byte records.
	// blockSize caches the array's block size for packing.
	codec     postings.BlockCodec
	blockSize int

	// compRaw/compEnc accumulate the raw (fixed-record) and encoded payload
	// bytes of every codec pack — the compression-ratio counters. Atomics
	// because the metrics registry reads them concurrently with flushes.
	compRaw atomic.Int64
	compEnc atomic.Int64

	nextDisk int // round-robin cursor i; the next new chunk goes to disk i

	release []releasedChunk // chunks awaiting deallocation at batch end

	// lastUpdate records each word's previous in-memory update size, the
	// signal of the adaptive allocation strategy. Nil unless needed.
	lastUpdate map[postings.WordID]int64

	stats Stats
}

type releasedChunk struct {
	disk          int
	block, blocks int64
}

// Stats reports the manager's cumulative behaviour, the quantities behind
// the paper's Tables 5 and 6.
type Stats struct {
	// Appends counts Append calls that found an existing long list — the
	// paper's "total possible number of in-place updates".
	Appends int64
	// InPlace counts updates applied in place (Figure 2 line 2).
	InPlace int64
	// Creations counts new long lists (bucket evictions reaching disk).
	Creations int64
	// Moves counts whole-style rewrites that relocated a list.
	Moves int64
	// SpilledAllocs counts allocations that had to skip a full disk.
	SpilledAllocs int64
}

// InPlaceFrac is the paper's "Frac" column: the fraction of possible
// in-place updates that actually happened in place.
func (s Stats) InPlaceFrac() float64 {
	if s.Appends == 0 {
		return 0
	}
	return float64(s.InPlace) / float64(s.Appends)
}

// NewManager creates a manager. blockPosting is the number of postings per
// disk block; when the array stores real data it must equal
// BlockSize/PostingBytes so that the accounting and the bytes agree.
func NewManager(p Policy, array *disk.Array, dir *directory.Dir, blockPosting int64) (*Manager, error) {
	return NewManagerCodec(p, array, dir, blockPosting, nil)
}

// NewManagerCodec is NewManager with a block codec: when codec is non-nil,
// long-list blocks hold codec-encoded postings instead of fixed records, and
// the chunk directory tracks each chunk's encoded extent. A codec requires a
// data store — in pure simulation there are no bytes to compress, and the
// raw path must stay byte-identical to the paper's accounting.
func NewManagerCodec(p Policy, array *disk.Array, dir *directory.Dir, blockPosting int64, codec postings.BlockCodec) (*Manager, error) {
	p = p.Normalize()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if blockPosting <= 0 {
		return nil, fmt.Errorf("longlist: blockPosting must be positive, got %d", blockPosting)
	}
	if array.HasStore() {
		if want := int64(array.Geometry().BlockSize / PostingBytes); blockPosting != want {
			return nil, fmt.Errorf("longlist: with a data store blockPosting must be %d (BlockSize/%d), got %d",
				want, PostingBytes, blockPosting)
		}
	}
	m := &Manager{policy: p, array: array, dir: dir, blockPosting: blockPosting}
	if codec != nil {
		if !array.HasStore() {
			return nil, fmt.Errorf("longlist: codec %v requires a data store", codec.ID())
		}
		if bs := array.Geometry().BlockSize; bs < postings.MinCodecBlockSize {
			return nil, fmt.Errorf("longlist: codec %v needs blocks of at least %d bytes, got %d",
				codec.ID(), postings.MinCodecBlockSize, bs)
		}
		m.codec = codec
		m.blockSize = array.Geometry().BlockSize
	}
	if p.Alloc == AllocAdaptive {
		m.lastUpdate = make(map[postings.WordID]int64)
	}
	return m, nil
}

// Codec returns the manager's block codec (nil for raw).
func (m *Manager) Codec() postings.BlockCodec { return m.codec }

// CompressionBytes reports the cumulative raw (fixed-record equivalent) and
// encoded payload bytes of every codec pack. Both are zero for raw managers.
// Safe to call concurrently with updates.
func (m *Manager) CompressionBytes() (raw, encoded int64) {
	return m.compRaw.Load(), m.compEnc.Load()
}

// Policy returns the manager's (normalized) policy.
func (m *Manager) Policy() Policy { return m.policy }

// NextDisk reports the round-robin cursor (persisted in checkpoints).
func (m *Manager) NextDisk() int { return m.nextDisk }

// SetNextDisk restores the round-robin cursor from a checkpoint.
func (m *Manager) SetNextDisk(d int) { m.nextDisk = d % m.array.Geometry().NumDisks }

// Stats returns cumulative statistics.
func (m *Manager) Stats() Stats { return m.stats }

// Directory returns the chunk directory the manager maintains.
func (m *Manager) Directory() *directory.Dir { return m.dir }

func (m *Manager) blocksFor(ps int64) int64 {
	if ps <= 0 {
		return 0
	}
	return (ps + m.blockPosting - 1) / m.blockPosting
}

// Append applies the Figure 2 algorithm: the in-memory list M (count
// postings, with data when the array has a store) is combined with word w's
// long list on disk. For a word with no long list yet (a fresh bucket
// eviction) the algorithm runs with an empty L.
//
// Every read goes through the array, which serves blocks staged earlier in
// the batch from their staged images, and every write is staged with
// disk.Array.Stage; the caller commits the batch's writes.
func (m *Manager) Append(w postings.WordID, count int64, list *postings.List) error {
	if count <= 0 {
		return fmt.Errorf("longlist: Append(%d) with count %d", w, count)
	}
	if m.array.HasStore() {
		if list == nil || int64(list.Len()) != count {
			return fmt.Errorf("longlist: Append(%d) needs a %d-posting list with a data store", w, count)
		}
	}
	exists := m.dir.Has(w)
	if exists {
		m.stats.Appends++
	} else {
		m.stats.Creations++
	}
	if m.lastUpdate != nil {
		m.lastUpdate[w] = count
	}

	// Lines 1-2: in-place update when the in-memory list fits the limit.
	if exists && m.policy.Limit == LimitZ {
		if last, ok := m.dir.LastChunk(w); ok && count <= last.Free() {
			done, err := m.updateInPlace(w, last, count, list)
			if err != nil {
				return err
			}
			if done {
				m.stats.InPlace++
				return nil
			}
		}
	}

	switch m.policy.Style {
	case StyleWhole:
		return m.appendWhole(w, count, list, exists)
	case StyleFill:
		if m.codec != nil {
			return m.fillCodec(w, count, list)
		}
		return m.appendFill(w, count, list)
	case StyleNew:
		// Lines 10-11: WRITE_RESERVED of the in-memory list as a new chunk.
		ref, err := m.writeReserved(count, count, list)
		if err != nil {
			return err
		}
		return m.dir.AppendChunk(w, ref)
	}
	return fmt.Errorf("longlist: unreachable style %v", m.policy.Style)
}

// updateInPlace implements UPDATE(M): read the last block containing
// postings for w, append, and write the touched tail blocks back. An
// in-memory list is never split across chunks by an in-place update. It
// reports false when the update does not fit the chunk after all (codec
// packs only), leaving the style path to apply it.
func (m *Manager) updateInPlace(w postings.WordID, last directory.ChunkRef, count int64, list *postings.List) (bool, error) {
	if m.codec != nil {
		return m.inPlaceCodec(w, last, count, list)
	}
	firstBlock := last.Postings / m.blockPosting // block holding the append point
	if firstBlock == last.Blocks {
		// The chunk's data blocks are exactly full; the append point opens a
		// fresh block, which cannot happen because capacity = blocks ×
		// blockPosting and Free() > 0 implies a partial or untouched block
		// inside the chunk.
		return false, fmt.Errorf("longlist: append point beyond chunk for word %d", w)
	}
	lastBlock := (last.Postings + count - 1) / m.blockPosting
	readBlock := last.Block + firstBlock
	writeBlocks := lastBlock - firstBlock + 1

	buf, err := m.array.ReadBlocksAt(last.Disk, readBlock, 1, disk.TagLong)
	if err != nil {
		return false, err
	}
	var out []byte
	if buf != nil {
		out = make([]byte, writeBlocks*int64(m.array.Geometry().BlockSize))
		copy(out, buf)
		writeRecords(out[(last.Postings%m.blockPosting)*PostingBytes:], list.Postings())
	}
	if err := m.array.Stage(last.Disk, readBlock, writeBlocks, out, disk.TagLong); err != nil {
		return false, err
	}
	return true, m.dir.GrowLastChunk(w, count)
}

// appendWhole implements lines 4-6: read the whole list, release its chunks,
// and write old+new postings as one fresh chunk with reserved space.
func (m *Manager) appendWhole(w postings.WordID, count int64, list *postings.List, exists bool) error {
	old, combined := int64(0), &postings.List{}
	if exists {
		chunks := m.dir.Chunks(w)
		var err error
		if old, combined, err = m.ReadChunks(w, chunks); err != nil {
			return err
		}
		for _, c := range chunks {
			m.release = append(m.release, releasedChunk{c.Disk, c.Block, c.Blocks})
		}
		m.stats.Moves++
	}
	if err := combined.Append(list); err != nil {
		return fmt.Errorf("longlist: word %d: %w", w, err)
	}
	ref, err := m.writeReserved(old+count, count, combined)
	if err != nil {
		return err
	}
	_, err = m.dir.Replace(w, []directory.ChunkRef{ref})
	return err
}

// appendFill implements lines 7-9: write the in-memory postings into
// fixed-size extents, one write per extent, each on the next disk.
func (m *Manager) appendFill(w postings.WordID, count int64, list *postings.List) error {
	extentCap := m.policy.ExtentBlocks * m.blockPosting
	for off := int64(0); off < count; {
		n := min(count-off, extentCap)
		d, block, err := m.alloc(m.policy.ExtentBlocks)
		if err != nil {
			return err
		}
		var data []byte
		if m.array.HasStore() {
			data = recordsOf(list, off, n)
		}
		if err := m.array.Stage(d, block, m.blocksFor(n), data, disk.TagLong); err != nil {
			return err
		}
		ref := directory.ChunkRef{
			Disk: d, Block: block, Blocks: m.policy.ExtentBlocks,
			Postings: n, Capacity: extentCap,
		}
		if err := m.dir.AppendChunk(w, ref); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// writeReserved implements WRITE_RESERVED(a): size the chunk for x postings
// by the allocation strategy f(x), allocate it, and stage the write of its
// data blocks; reserved blocks are allocated but untouched. upd is the size
// of the in-memory update being applied, the signal of the adaptive
// strategy.
func (m *Manager) writeReserved(x, upd int64, list *postings.List) (directory.ChunkRef, error) {
	if m.codec != nil {
		return m.packReserved(list, x, upd)
	}
	var blocks int64
	switch m.policy.Alloc {
	case AllocConstant:
		blocks = m.blocksFor(x + int64(m.policy.K))
	case AllocBlock:
		k := int64(m.policy.K)
		if k < 1 {
			k = 1
		}
		need := m.blocksFor(x)
		blocks = k * ((need + k - 1) / k)
	case AllocProportional:
		blocks = m.blocksFor(int64(m.policy.K * float64(x)))
	case AllocAdaptive:
		blocks = m.blocksFor(x + int64(m.policy.K*float64(upd)))
	}
	blocks = max(blocks, m.blocksFor(x), 1)
	d, block, err := m.alloc(blocks)
	if err != nil {
		return directory.ChunkRef{}, err
	}
	var data []byte
	if m.array.HasStore() {
		data = recordsOf(list, 0, x)
	}
	if err := m.array.Stage(d, block, m.blocksFor(x), data, disk.TagLong); err != nil {
		return directory.ChunkRef{}, err
	}
	return directory.ChunkRef{
		Disk: d, Block: block, Blocks: blocks,
		Postings: x, Capacity: blocks * m.blockPosting,
	}, nil
}

// alloc chooses a disk round-robin ("the strategy considered here is to
// choose disk i+1 mod n") and first-fits the chunk there, falling over to
// the remaining disks only when the chosen disk has no contiguous run.
func (m *Manager) alloc(blocks int64) (int, int64, error) {
	n := m.array.Geometry().NumDisks
	for attempt := 0; attempt < n; attempt++ {
		d := (m.nextDisk + attempt) % n
		block, err := m.array.Alloc(d, blocks)
		if err == nil {
			m.nextDisk = (d + 1) % n
			if attempt > 0 {
				m.stats.SpilledAllocs++
			}
			return d, block, nil
		}
	}
	return 0, 0, disk.ErrNoSpace{Disk: m.nextDisk, Blocks: blocks}
}

// ReadChunks reads the given chunks of word w's long list (one operation
// per non-empty chunk) and returns the posting count and, with a store, the
// decoded postings. The chunks may come from the live directory or from a
// directory snapshot: queries running concurrently with a batch flush read
// through a snapshot whose chunks stay intact until the flush completes.
// ReadChunks is safe to call from multiple goroutines.
func (m *Manager) ReadChunks(w postings.WordID, chunks []directory.ChunkRef) (int64, *postings.List, error) {
	if m.codec != nil {
		return m.readChunksCodec(w, chunks)
	}
	var total int64
	out := &postings.List{}
	if m.array.HasStore() {
		out = presized(chunks)
	}
	for _, c := range chunks {
		if c.Postings == 0 {
			continue
		}
		buf, err := m.array.ReadBlocksAt(c.Disk, c.Block, m.blocksFor(c.Postings), disk.TagLong)
		if err != nil {
			return 0, nil, err
		}
		total += c.Postings
		if m.array.HasStore() {
			part, err := readRecords(buf, c.Postings)
			if err != nil {
				return 0, nil, fmt.Errorf("longlist: word %d chunk at %d/%d: %w", w, c.Disk, c.Block, err)
			}
			if err := out.Append(part); err != nil {
				return 0, nil, fmt.Errorf("longlist: word %d: %w", w, err)
			}
		}
	}
	return total, out, nil
}

// presized returns an empty list with room for every posting the chunks
// hold, so appending their decoded postings never regrows it.
func presized(chunks []directory.ChunkRef) *postings.List {
	var n int64
	for _, c := range chunks {
		n += c.Postings
	}
	return postings.NewList(make([]postings.Posting, 0, n))
}

// ReadList reads word w's entire long list for query evaluation, returning
// the postings (nil without a store) and the number of read operations
// performed. The count is derived from the chunk list rather than a global
// counter delta, so it stays exact when other goroutines do I/O in parallel.
func (m *Manager) ReadList(w postings.WordID) (*postings.List, int, error) {
	chunks := m.dir.Chunks(w)
	reads := 0
	for _, c := range chunks {
		if c.Postings > 0 {
			reads++
		}
	}
	_, list, err := m.ReadChunks(w, chunks)
	if err != nil {
		return nil, 0, err
	}
	return list, reads, nil
}

// Rewrite replaces w's long list contents with the given postings (the
// deletion sweep path): the old chunks are released and the new list is
// written under the current policy's WRITE_RESERVED. An empty list removes
// the word from the directory.
func (m *Manager) Rewrite(w postings.WordID, count int64, list *postings.List) error {
	for _, c := range m.dir.Chunks(w) {
		m.release = append(m.release, releasedChunk{c.Disk, c.Block, c.Blocks})
	}
	if count == 0 {
		_, err := m.dir.Replace(w, nil)
		return err
	}
	ref, err := m.writeReserved(count, m.lastUpdate[w], list)
	if err != nil {
		return err
	}
	_, err = m.dir.Replace(w, []directory.ChunkRef{ref})
	return err
}

// EndBatch returns every chunk on the RELEASE list to free space, the
// paper's deferred deallocation ("at this time ... the old long lists on the
// RELEASE list are returned to free space").
func (m *Manager) EndBatch() {
	for _, r := range m.release {
		m.array.Free(r.disk, r.block, r.blocks)
	}
	m.release = m.release[:0]
}

// PendingReleases reports how many chunks await deallocation.
func (m *Manager) PendingReleases() int { return len(m.release) }

// writeRecords packs postings as fixed-width records into dst.
func writeRecords(dst []byte, ps []postings.Posting) {
	for i, p := range ps {
		binary.LittleEndian.PutUint32(dst[i*PostingBytes:], uint32(p.Doc))
		binary.LittleEndian.PutUint32(dst[i*PostingBytes+4:], p.Freq)
	}
}

// recordsOf renders postings [off, off+n) of list as records.
func recordsOf(list *postings.List, off, n int64) []byte {
	out := make([]byte, n*PostingBytes)
	writeRecords(out, list.Postings()[off:off+n])
	return out
}

// readRecords decodes n fixed-width records from buf. Records out of
// document order (an unwritten or corrupt block) are an error.
func readRecords(buf []byte, n int64) (*postings.List, error) {
	if int64(len(buf)) < n*PostingBytes {
		return nil, fmt.Errorf("longlist: %d bytes short of %d records", len(buf), n)
	}
	ps := make([]postings.Posting, n)
	for i := range ps {
		ps[i] = postings.Posting{
			Doc:  postings.DocID(binary.LittleEndian.Uint32(buf[i*PostingBytes:])),
			Freq: binary.LittleEndian.Uint32(buf[i*PostingBytes+4:]),
		}
		if i > 0 && ps[i].Doc <= ps[i-1].Doc {
			return nil, fmt.Errorf("%w: record %d out of order: %d <= %d",
				postings.ErrCorrupt, i, ps[i].Doc, ps[i-1].Doc)
		}
	}
	return postings.NewList(ps), nil
}
