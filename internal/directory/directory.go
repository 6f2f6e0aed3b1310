// Package directory implements the long-list directory of the dual-structure
// index: the in-memory map from each word with a long list to the chunks
// (variable-sized contiguous disk regions) that hold its postings. "The
// pointers to all chunks are recorded in the directory. The directory
// entries for a word may point to chunks on multiple disks. The directory
// resides in memory at all times. Periodically, the directory is written to
// disk."
package directory

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"dualindex/internal/postings"
)

// ChunkRef locates one chunk of a long list and its fill state. Capacity is
// in postings: Blocks × the postings-per-block parameter. Reserved space at
// the end of a chunk is Capacity − Postings.
type ChunkRef struct {
	Disk     int
	Block    int64
	Blocks   int64
	Postings int64 // postings currently stored
	Capacity int64 // posting capacity of the allocated blocks
	// EncBlocks is how many of the chunk's leading blocks hold codec-encoded
	// postings. Zero means the raw fixed-record layout, where the data
	// extent is implied by Postings; compressed chunks must record it
	// because the encoded size depends on the data.
	EncBlocks int64
}

// Free reports the reserved space z of the chunk in postings.
func (c ChunkRef) Free() int64 { return c.Capacity - c.Postings }

// DataBlocks reports how many of the chunk's blocks hold postings data:
// EncBlocks for codec-packed chunks, ceil(Postings/blockPosting) for raw.
func (c ChunkRef) DataBlocks(blockPosting int64) int64 {
	if c.EncBlocks > 0 {
		return c.EncBlocks
	}
	if c.Postings <= 0 {
		return 0
	}
	return (c.Postings + blockPosting - 1) / blockPosting
}

// Validate checks internal consistency.
func (c ChunkRef) Validate() error {
	if c.Blocks <= 0 || c.Postings < 0 || c.Capacity < c.Postings || c.Block < 0 || c.Disk < 0 ||
		c.EncBlocks < 0 || c.EncBlocks > c.Blocks {
		return fmt.Errorf("directory: invalid chunk %+v", c)
	}
	return nil
}

// Dir is the directory. The zero value is not usable; call New.
type Dir struct {
	words map[postings.WordID][]ChunkRef

	totalChunks   int64
	totalPostings int64
	totalCapacity int64
}

// New returns an empty directory.
func New() *Dir {
	return &Dir{words: make(map[postings.WordID][]ChunkRef)}
}

// Has reports whether w has a long list. This is the membership test the
// index performs before consulting h(w) for a short list.
func (d *Dir) Has(w postings.WordID) bool {
	_, ok := d.words[w]
	return ok
}

// NumWords reports how many words have long lists.
func (d *Dir) NumWords() int { return len(d.words) }

// TotalPostings reports the postings stored in all long lists.
func (d *Dir) TotalPostings() int64 { return d.totalPostings }

// Utilization is the paper's long-list (internal) utilization rate: the
// fraction of allocated long-list capacity that holds postings. With no long
// lists it is 1.0, matching Figure 9's initial spike.
func (d *Dir) Utilization() float64 {
	if d.totalCapacity == 0 {
		return 1.0
	}
	return float64(d.totalPostings) / float64(d.totalCapacity)
}

// AvgReadsPerList is the paper's query-performance metric (Figure 10): "the
// total number of chunks in the index divided by the number of words with
// long lists" — the average number of read operations needed to read a long
// list. With no long lists it reports 0.
func (d *Dir) AvgReadsPerList() float64 {
	if len(d.words) == 0 {
		return 0
	}
	return float64(d.totalChunks) / float64(len(d.words))
}

// Chunks returns w's chunk list (nil if w has no long list). Callers must
// not mutate the result.
func (d *Dir) Chunks(w postings.WordID) []ChunkRef { return d.words[w] }

// Postings reports the total postings of w's long list.
func (d *Dir) Postings(w postings.WordID) int64 {
	var sum int64
	for _, c := range d.words[w] {
		sum += c.Postings
	}
	return sum
}

// LastChunk returns a copy of w's final chunk — the only chunk with reserved
// space that in-place updates may fill.
func (d *Dir) LastChunk(w postings.WordID) (ChunkRef, bool) {
	cs := d.words[w]
	if len(cs) == 0 {
		return ChunkRef{}, false
	}
	return cs[len(cs)-1], true
}

// AppendChunk adds a chunk to the end of w's list, creating the long list if
// needed.
func (d *Dir) AppendChunk(w postings.WordID, c ChunkRef) error {
	if err := c.Validate(); err != nil {
		return err
	}
	d.words[w] = append(d.words[w], c)
	d.account(c, +1)
	return nil
}

// GrowLastChunk records an in-place update: n postings added to w's final
// chunk's reserved space.
func (d *Dir) GrowLastChunk(w postings.WordID, n int64) error {
	cs := d.words[w]
	if len(cs) == 0 {
		return fmt.Errorf("directory: GrowLastChunk of word %d with no chunks", w)
	}
	last := &cs[len(cs)-1]
	if n <= 0 || last.Postings+n > last.Capacity {
		return fmt.Errorf("directory: grow %d exceeds reserved space %d of word %d", n, last.Free(), w)
	}
	last.Postings += n
	d.totalPostings += n
	return nil
}

// GrowLastChunkEnc is GrowLastChunk for codec-packed chunks: besides the
// posting count it updates the chunk's encoded-data extent, which re-packing
// the tail block may have grown.
func (d *Dir) GrowLastChunkEnc(w postings.WordID, n, encBlocks int64) error {
	cs := d.words[w]
	if len(cs) == 0 {
		return fmt.Errorf("directory: GrowLastChunkEnc of word %d with no chunks", w)
	}
	last := &cs[len(cs)-1]
	if encBlocks < last.EncBlocks || encBlocks > last.Blocks {
		return fmt.Errorf("directory: encoded extent %d outside [%d, %d] of word %d",
			encBlocks, last.EncBlocks, last.Blocks, w)
	}
	if err := d.GrowLastChunk(w, n); err != nil {
		return err
	}
	cs[len(cs)-1].EncBlocks = encBlocks
	return nil
}

// Replace swaps w's entire chunk list (the whole style rewriting a list) and
// returns the previous chunks so the caller can put them on the RELEASE
// list.
func (d *Dir) Replace(w postings.WordID, chunks []ChunkRef) ([]ChunkRef, error) {
	for _, c := range chunks {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	old := d.words[w]
	for _, c := range old {
		d.account(c, -1)
	}
	if len(chunks) == 0 {
		delete(d.words, w)
	} else {
		d.words[w] = chunks
	}
	for _, c := range chunks {
		d.account(c, +1)
	}
	return old, nil
}

// Words returns all words with long lists in ascending order.
func (d *Dir) Words() []postings.WordID {
	out := make([]postings.WordID, 0, len(d.words))
	for w := range d.words {
		out = append(out, w)
	}
	slices.Sort(out)
	return out
}

// Clone returns a deep copy of the directory. The copy shares nothing with
// the original, so a flush can keep mutating the live directory while
// queries read the clone — the snapshot half of the engine's
// search-during-flush scheme.
func (d *Dir) Clone() *Dir {
	c := &Dir{
		words:         make(map[postings.WordID][]ChunkRef, len(d.words)),
		totalChunks:   d.totalChunks,
		totalPostings: d.totalPostings,
		totalCapacity: d.totalCapacity,
	}
	for w, cs := range d.words {
		c.words[w] = append([]ChunkRef(nil), cs...)
	}
	return c
}

func (d *Dir) account(c ChunkRef, sign int64) {
	d.totalChunks += sign
	d.totalPostings += sign * c.Postings
	d.totalCapacity += sign * c.Capacity
}

// EncodedSize reports the byte size of Encode's output without building it,
// used to charge the periodic directory flush its true I/O cost.
func (d *Dir) EncodedSize() int {
	return len(d.Encode(nil))
}

// Encode serialises the directory deterministically (words ascending). This
// is the raw-codec format — five uvarints per chunk, unchanged since the
// first checkpoint format, so raw simulated traces stay byte-identical.
func (d *Dir) Encode(dst []byte) []byte { return d.encode(dst, false) }

// EncodeExt is Encode with a sixth uvarint per chunk, the codec-encoded data
// extent EncBlocks. Codec-packed indexes checkpoint with this format; raw
// indexes never do.
func (d *Dir) EncodeExt(dst []byte) []byte { return d.encode(dst, true) }

func (d *Dir) encode(dst []byte, ext bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d.words)))
	for _, w := range d.Words() {
		dst = binary.AppendUvarint(dst, uint64(w))
		cs := d.words[w]
		dst = binary.AppendUvarint(dst, uint64(len(cs)))
		for _, c := range cs {
			dst = binary.AppendUvarint(dst, uint64(c.Disk))
			dst = binary.AppendUvarint(dst, uint64(c.Block))
			dst = binary.AppendUvarint(dst, uint64(c.Blocks))
			dst = binary.AppendUvarint(dst, uint64(c.Postings))
			dst = binary.AppendUvarint(dst, uint64(c.Capacity))
			if ext {
				dst = binary.AppendUvarint(dst, uint64(c.EncBlocks))
			}
		}
	}
	return dst
}

// Decode reconstructs a directory from an Encode image, which may be
// followed by block padding. It refuses any image Encode cannot produce —
// word identifiers that repeat, descend or exceed 32 bits, a word with no
// chunks, an invalid chunk, a non-minimal varint — so a decoded directory
// re-encodes to exactly the bytes it was read from.
func Decode(buf []byte) (*Dir, error) { return decode(buf, false) }

// DecodeExt reconstructs a directory from an EncodeExt image, with Decode's
// checks.
func DecodeExt(buf []byte) (*Dir, error) { return decode(buf, true) }

func decode(buf []byte, ext bool) (*Dir, error) {
	d := New()
	off := 0
	next := func(what string) (uint64, error) {
		v, n := postings.Uvarint(buf[off:])
		if n <= 0 {
			return 0, fmt.Errorf("directory: corrupt %s at byte %d", what, off)
		}
		off += n
		return v, nil
	}
	numWords, err := next("word count")
	if err != nil {
		return nil, err
	}
	perChunk := 5
	if ext {
		perChunk = 6
	}
	var vals [6]uint64
	var prev uint64
	for i := uint64(0); i < numWords; i++ {
		w, err := next("word id")
		if err != nil {
			return nil, err
		}
		if w > math.MaxUint32 || (i > 0 && w <= prev) {
			return nil, fmt.Errorf("directory: word id %d after %d is out of order or range", w, prev)
		}
		prev = w
		numChunks, err := next("chunk count")
		if err != nil {
			return nil, err
		}
		if numChunks == 0 {
			return nil, fmt.Errorf("directory: word %d has no chunks", w)
		}
		for j := uint64(0); j < numChunks; j++ {
			for k := 0; k < perChunk; k++ {
				if vals[k], err = next("chunk field"); err != nil {
					return nil, err
				}
			}
			c := ChunkRef{
				Disk:      int(vals[0]),
				Block:     int64(vals[1]),
				Blocks:    int64(vals[2]),
				Postings:  int64(vals[3]),
				Capacity:  int64(vals[4]),
				EncBlocks: int64(vals[5]),
			}
			if err := d.AppendChunk(postings.WordID(w), c); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}
