package postings

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// The on-disk encoding delta-compresses document identifiers and writes the
// gaps as unsigned varints, each followed by a frequency varint that is
// always 1. This is the standard inverted list compression the paper cites
// (Zobel/Moffat/Sacks-Davis) and models implicitly through the BlockPosting
// parameter: the simulator charges a fixed average number of encoded
// postings per disk block.

// ErrCorrupt is returned when encoded postings cannot be decoded.
var ErrCorrupt = errors.New("postings: corrupt encoding")

// storedFreq is the frequency every on-disk posting carries. The index
// records word sets, so it is the only value an encoder writes and the only
// one a decoder accepts; its one-byte varint is storedFreq itself.
const storedFreq = 1

// Encode appends the encoded form of l to dst and returns the extended
// buffer. The encoding is: varint count, then for each posting a varint
// doc-ID gap (first gap is the absolute ID plus one, so a zero gap never
// appears and corruption is detectable) and the frequency varint 1.
func Encode(dst []byte, l *List) []byte {
	dst = binary.AppendUvarint(dst, uint64(l.Len()))
	prev := uint64(0)
	for _, d := range l.Docs() {
		dst = binary.AppendUvarint(dst, uint64(d)+1-prev)
		dst = append(dst, storedFreq)
		prev = uint64(d) + 1
	}
	return dst
}

// EncodedSize returns the exact number of bytes Encode will produce for l.
func EncodedSize(l *List) int {
	n := uvarintLen(uint64(l.Len()))
	prev := uint64(0)
	for _, d := range l.Docs() {
		n += uvarintLen(uint64(d)+1-prev) + 1
		prev = uint64(d) + 1
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Uvarint decodes an unsigned varint like binary.Uvarint, and also refuses
// (n <= 0) a non-minimal encoding: a multi-byte varint whose last byte is
// zero. Every value it accepts re-encodes to exactly the bytes it read.
func Uvarint(buf []byte) (uint64, int) {
	v, n := binary.Uvarint(buf)
	if n > 1 && buf[n-1] == 0 {
		return 0, -n
	}
	return v, n
}

// Decode decodes one encoded list from buf and returns the list and the
// number of bytes consumed. It accepts exactly what Encode produces, so a
// decoded list re-encodes to the bytes consumed: a frequency other than 1
// is corrupt.
func Decode(buf []byte) (*List, int, error) {
	docs, n, err := decodeAppend(nil, buf)
	if err != nil {
		return nil, 0, err
	}
	return &List{docs: docs}, n, nil
}

// decodeAppend is Decode appending the postings to dst, which it returns
// with the number of bytes consumed.
func decodeAppend(dst []DocID, buf []byte) ([]DocID, int, error) {
	count, n := Uvarint(buf)
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w: bad count", ErrCorrupt)
	}
	off := n
	// Every posting encodes to at least two bytes (one gap varint, one freq
	// varint), so a count the remaining buffer cannot possibly hold is corrupt
	// — reject it before it sizes the allocation below.
	if count > uint64(len(buf)-off)/2 {
		return nil, 0, fmt.Errorf("%w: count %d exceeds %d-byte buffer", ErrCorrupt, count, len(buf)-off)
	}
	dst = slices.Grow(dst, int(count))
	prev := uint64(0)
	for i := 0; i < int(count); i++ {
		// Most gaps are one byte (those of dense lists): take those
		// without the general decoder.
		gap, n := uint64(0), 1
		if off < len(buf) && buf[off] < 0x80 {
			gap = uint64(buf[off])
		} else {
			gap, n = Uvarint(buf[off:])
		}
		if n <= 0 || gap == 0 {
			return nil, 0, fmt.Errorf("%w: bad gap at posting %d", ErrCorrupt, i)
		}
		off += n
		if off >= len(buf) || buf[off] != storedFreq {
			return nil, 0, fmt.Errorf("%w: bad freq at posting %d", ErrCorrupt, i)
		}
		off++
		doc := prev + gap - 1
		if doc > uint64(^DocID(0)) {
			return nil, 0, fmt.Errorf("%w: doc id overflow", ErrCorrupt)
		}
		dst = append(dst, DocID(doc))
		prev = doc + 1
	}
	return dst, off, nil
}
