package postings

import (
	"encoding/binary"
	"fmt"
)

// This file defines the block codec layer: the pluggable encoding applied to
// long-list postings when they are packed into disk blocks. The paper's
// BlockPosting parameter "implicitly models the efficiency of the compression
// algorithm applied to long lists"; a block codec makes that efficiency
// measurable instead of assumed. Each encoded block is self-describing — the
// delta chain restarts at every block boundary — so an in-place update can
// re-pack a chunk's tail block without touching the blocks before it, exactly
// the access pattern of the Figure 2 update algorithm.
//
// CodecRaw deliberately has no BlockCodec implementation: raw indexes keep
// the fixed 8-byte record layout of the longlist package, byte for byte, so
// simulated I/O traces and on-disk images are identical to the pre-codec
// engine.

// CodecID identifies the block codec of an index's long-list postings. The
// codec is part of the on-disk format: it is recorded in the checkpoint and
// the index manifest, and an index may only be opened with the codec it was
// created with.
type CodecID uint8

const (
	// CodecRaw is the fixed 8-byte record layout (no compression) — the
	// default, and the only codec usable in pure simulation mode.
	CodecRaw CodecID = iota
	// CodecVarint delta-codes document gaps and writes each as an unsigned
	// varint followed by the frequency varint 1 (the codec.go encoding, per
	// block).
	CodecVarint
	// CodecGolomb Golomb-codes document gaps with a per-block parameter
	// tuned to the block's posting density (the golomb.go encoding), each
	// followed by a one-bit frequency of 1.
	CodecGolomb
)

// String returns the codec's manifest/flag name.
func (c CodecID) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecVarint:
		return "varint"
	case CodecGolomb:
		return "golomb"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// ParseCodec maps a manifest/flag name to its CodecID. The empty string is
// CodecRaw, so callers can pass an unset option straight through.
func ParseCodec(name string) (CodecID, error) {
	switch name {
	case "", "raw":
		return CodecRaw, nil
	case "varint":
		return CodecVarint, nil
	case "golomb":
		return CodecGolomb, nil
	}
	return CodecRaw, fmt.Errorf("postings: unknown codec %q (want raw, varint or golomb)", name)
}

// MinCodecBlockSize is the smallest disk block a compressing codec supports:
// every block must fit its header plus at least one worst-case posting.
const MinCodecBlockSize = 64

// A BlockCodec encodes postings into self-describing disk blocks. EncodeBlock
// packs as many postings as fit into one block; DecodeBlock inverts it.
// Implementations are stateless and safe for concurrent use.
type BlockCodec interface {
	// ID reports which codec this is.
	ID() CodecID
	// EncodeBlock encodes a prefix of l.Docs()[from:] into at most
	// blockSize bytes and returns the encoding and how many postings it
	// holds. At least one posting is always packed (blockSize must be at
	// least MinCodecBlockSize).
	EncodeBlock(l *List, from, blockSize int) ([]byte, int)
	// DecodeBlock decodes one encoded block (possibly followed by padding,
	// which is ignored) and appends its postings to dst. It checks the
	// block's own order only: joining blocks is UnpackBlocks' check.
	DecodeBlock(dst []DocID, buf []byte) ([]DocID, error)
}

// NewBlockCodec returns the BlockCodec for id — nil for CodecRaw, whose
// fixed-record layout is handled by the longlist package directly.
func NewBlockCodec(id CodecID) (BlockCodec, error) {
	switch id {
	case CodecRaw:
		return nil, nil
	case CodecVarint:
		return varintCodec{}, nil
	case CodecGolomb:
		return golombCodec{}, nil
	}
	return nil, fmt.Errorf("postings: unknown codec id %d", id)
}

// varintCodec: each block is exactly the codec.go list encoding — varint
// count, then per posting a varint doc gap (delta chain restarted at the
// block, first gap = doc+1) and the frequency varint 1.
type varintCodec struct{}

func (varintCodec) ID() CodecID { return CodecVarint }

func (varintCodec) EncodeBlock(l *List, from, blockSize int) ([]byte, int) {
	docs := l.Docs()[from:]
	n, size := 0, 0
	prev := uint64(0)
	for _, doc := range docs {
		d := uvarintLen(uint64(doc)+1-prev) + 1
		if n > 0 && size+d+uvarintLen(uint64(n+1)) > blockSize {
			break
		}
		size += d
		prev = uint64(doc) + 1
		n++
	}
	buf := Encode(nil, &List{docs: docs[:n]})
	if len(buf) > blockSize {
		panic(fmt.Sprintf("postings: varint block %d bytes exceeds block size %d", len(buf), blockSize))
	}
	return buf, n
}

func (varintCodec) DecodeBlock(dst []DocID, buf []byte) ([]DocID, error) {
	dst, _, err := decodeAppend(dst, buf)
	return dst, err
}

// golombCodec: each block holds a varint count, the Golomb parameter b, the
// first posting verbatim (varint absolute doc and frequency 1 — absolute, so
// a sparse first gap never explodes into a long unary run), then the
// remaining postings Golomb-coded against b, which is tuned to the block's
// own density.
type golombCodec struct{}

func (golombCodec) ID() CodecID { return CodecGolomb }

// golombBlockSize reports the exact encoded size of docs as one Golomb
// block.
func golombBlockSize(docs []DocID) int {
	n := len(docs)
	b := golombBlockParameter(docs)
	size := uvarintLen(uint64(n)) + uvarintLen(b) + uvarintLen(uint64(docs[0])) + 1
	if n == 1 {
		return size
	}
	rbits := uint(0)
	for 1<<rbits < b {
		rbits++
	}
	cutoff := uint64(1)<<rbits - b
	bits := 0
	prev := uint64(docs[0]) + 1
	for _, d := range docs[1:] {
		gap := uint64(d) + 1 - prev
		prev = uint64(d) + 1
		bits += int((gap-1)/b) + 1 // unary quotient + terminator
		if r := (gap - 1) % b; r < cutoff {
			if rbits > 0 {
				bits += int(rbits) - 1
			}
		} else {
			bits += int(rbits)
		}
		bits++ // the frequency 1: its unary terminator
	}
	return size + (bits+7)/8
}

// golombBlockParameter tunes b to the block's own gap density: the classic
// 0.69·N/f with N the document span covered by the postings after the first.
func golombBlockParameter(docs []DocID) uint64 {
	if len(docs) < 2 {
		return 1
	}
	span := int64(docs[len(docs)-1]) - int64(docs[0])
	return GolombParameter(span, int64(len(docs)-1))
}

func (golombCodec) EncodeBlock(l *List, from, blockSize int) ([]byte, int) {
	docs := l.Docs()[from:]
	// Largest prefix that fits: binary search on the exact encoded size,
	// then a verification walk-down (the size is not perfectly monotone in
	// n because b retunes as postings join).
	lo, hi := 1, len(docs)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if golombBlockSize(docs[:mid]) <= blockSize {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	n := lo
	for n > 1 && golombBlockSize(docs[:n]) > blockSize {
		n--
	}
	buf := encodeGolombBlock(docs[:n])
	if len(buf) > blockSize {
		panic(fmt.Sprintf("postings: golomb block %d bytes exceeds block size %d", len(buf), blockSize))
	}
	return buf, n
}

func encodeGolombBlock(docs []DocID) []byte {
	b := golombBlockParameter(docs)
	buf := binary.AppendUvarint(nil, uint64(len(docs)))
	buf = binary.AppendUvarint(buf, b)
	buf = binary.AppendUvarint(buf, uint64(docs[0]))
	buf = append(buf, storedFreq)
	if len(docs) > 1 {
		buf = encodeGolombFrom(buf, docs[1:], uint64(docs[0])+1, b)
	}
	return buf
}

func (golombCodec) DecodeBlock(dst []DocID, buf []byte) ([]DocID, error) {
	off := 0
	next := func() (uint64, error) {
		v, k := binary.Uvarint(buf[off:])
		if k <= 0 {
			return 0, fmt.Errorf("%w: truncated golomb block header", ErrCorrupt)
		}
		off += k
		return v, nil
	}
	n, err := next()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: empty golomb block", ErrCorrupt)
	}
	b, err := next()
	if err != nil {
		return nil, err
	}
	if b == 0 {
		return nil, fmt.Errorf("%w: Golomb parameter 0", ErrCorrupt)
	}
	firstDoc, err := next()
	if err != nil {
		return nil, err
	}
	firstFreq, err := next()
	if err != nil {
		return nil, err
	}
	if firstDoc > uint64(^DocID(0)) || firstFreq != storedFreq {
		return nil, fmt.Errorf("%w: bad first posting", ErrCorrupt)
	}
	dst = append(dst, DocID(firstDoc))
	if n == 1 {
		return dst, nil
	}
	return decodeGolombFrom(dst, buf[off:], int(n-1), b, firstDoc+1)
}

// PackBlocks encodes count postings of l starting at from into consecutive
// blockSize-byte blocks (each zero-padded to the block boundary). It returns
// the image, the number of blocks, and the total encoded payload bytes — the
// codec-efficiency numerator the compression-ratio counters report.
func PackBlocks(c BlockCodec, l *List, from, count, blockSize int) (image []byte, blocks, payload int) {
	image, blocks, n, payload := PackBlocksLimit(c, l, from, count, blockSize, count)
	if n != count {
		panic(fmt.Sprintf("postings: packed %d of %d postings with no block limit", n, count))
	}
	return image, blocks, payload
}

// PackBlocksLimit is PackBlocks bounded to at most maxBlocks blocks; it
// additionally returns how many postings were packed (possibly fewer than
// count). maxBlocks as a posting count is an upper bound too, so passing
// count for it never truncates.
func PackBlocksLimit(c BlockCodec, l *List, from, count, blockSize, maxBlocks int) (image []byte, blocks, packed, payload int) {
	if blockSize < MinCodecBlockSize {
		panic(fmt.Sprintf("postings: block size %d below codec minimum %d", blockSize, MinCodecBlockSize))
	}
	window := &List{docs: l.Docs()[from : from+count]}
	for packed < count && blocks < maxBlocks {
		enc, n := c.EncodeBlock(window, packed, blockSize)
		image = append(image, enc...)
		if pad := blockSize - len(enc); pad > 0 {
			image = append(image, make([]byte, pad)...)
		}
		blocks++
		packed += n
		payload += len(enc)
	}
	return image, blocks, packed, payload
}

// UnpackBlocks decodes count postings from an image of consecutive encoded
// blocks, the inverse of PackBlocks, and appends them to dst. Every block
// must open above the posting before it, dst's last included, so postings
// appended to a list stay strictly ascending.
func UnpackBlocks(c BlockCodec, dst []DocID, buf []byte, blockSize, count int) ([]DocID, error) {
	base := len(dst)
	for off := 0; len(dst)-base < count; off += blockSize {
		if off >= len(buf) {
			return nil, fmt.Errorf("%w: %d blocks hold %d of %d postings",
				ErrCorrupt, off/blockSize, len(dst)-base, count)
		}
		end := min(off+blockSize, len(buf))
		start := len(dst)
		var err error
		if dst, err = c.DecodeBlock(dst, buf[off:end]); err != nil {
			return nil, err
		}
		if start > 0 && len(dst) > start && dst[start] <= dst[start-1] {
			return nil, fmt.Errorf("%w: block at byte %d opens at %d, not above %d",
				ErrCorrupt, off, dst[start], dst[start-1])
		}
		if len(dst)-base > count {
			return nil, fmt.Errorf("%w: decoded %d postings, expected %d", ErrCorrupt, len(dst)-base, count)
		}
	}
	return dst, nil
}
