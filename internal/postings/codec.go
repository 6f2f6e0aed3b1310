package postings

import (
	"encoding/binary"
	"errors"
	"fmt"
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
	return AppendBody(binary.AppendUvarint(dst, uint64(l.Len())), 0, l)
}

// EncodedSize returns the exact number of bytes Encode will produce for l.
func EncodedSize(l *List) int {
	return uvarintLen(uint64(l.Len())) + BodySize(0, l)
}

// A body is what Encode writes after a list's count: the postings' gap
// varints, each followed by the frequency 1. Its first gap is taken from a
// base: 0 for the body of a whole list, last+1 for a body that continues a
// list whose largest posting is last. A list's body followed by the body
// of later postings taken from its last+1 is the joined list's body, so a
// stored body grows without re-encoding what it already holds.

// AppendBody appends the body of l's postings, taken from base, to dst.
func AppendBody(dst []byte, base uint64, l *List) []byte {
	prev := base
	for _, d := range l.Docs() {
		dst = binary.AppendUvarint(dst, uint64(d)+1-prev)
		dst = append(dst, storedFreq)
		prev = uint64(d) + 1
	}
	return dst
}

// BodySize returns the exact number of bytes AppendBody appends for l's
// postings taken from base.
func BodySize(base uint64, l *List) int {
	n, prev := 0, base
	for _, d := range l.Docs() {
		n += uvarintLen(uint64(d)+1-prev) + 1
		prev = uint64(d) + 1
	}
	return n
}

// BodyFirst returns the first posting of a whole list's body, which must
// hold at least one posting.
func BodyFirst(body []byte) DocID {
	gap, _ := Uvarint(body)
	return DocID(gap - 1)
}

// ScanBody checks that buf opens with the body of a whole list of count
// postings, accepting exactly what DecodeBody accepts, and returns the
// body's length and its last posting. It allocates nothing.
func ScanBody(buf []byte, count int) (int, DocID, error) {
	_, n, last, err := decodeBody(nil, buf, uint64(count), false)
	return n, last, err
}

// DecodeBody decodes the body of a whole list of count postings that
// opens buf.
func DecodeBody(buf []byte, count int) (*List, error) {
	docs, _, _, err := decodeBody(nil, buf, uint64(count), true)
	if err != nil {
		return nil, err
	}
	return &List{docs: docs}, nil
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

// decodeAppend decodes one encoded list from buf, appending its postings
// to dst, and returns dst and the number of bytes consumed. It accepts
// exactly what Encode produces, so a decoded list re-encodes to the bytes
// consumed: a frequency other than 1 is corrupt.
func decodeAppend(dst []DocID, buf []byte) ([]DocID, int, error) {
	count, n := Uvarint(buf)
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w: bad count", ErrCorrupt)
	}
	dst, k, _, err := decodeBody(dst, buf[n:], count, true)
	return dst, n + k, err
}

// decodeBody reads the body of a whole list of count postings from buf,
// appending the postings to dst when keep is set, and returns dst, the
// number of bytes read and the last posting.
func decodeBody(dst []DocID, buf []byte, count uint64, keep bool) ([]DocID, int, DocID, error) {
	// Every posting encodes to at least two bytes (one gap varint, one freq
	// varint), so a count the buffer cannot possibly hold is corrupt —
	// reject it before it sizes the allocation below.
	if count > uint64(len(buf))/2 {
		return nil, 0, 0, fmt.Errorf("%w: count %d exceeds %d-byte buffer", ErrCorrupt, count, len(buf))
	}
	if keep && cap(dst)-len(dst) < int(count) {
		// One allocation, also under the race detector, where
		// slices.Grow's make is not folded into its append.
		dst = append(make([]DocID, 0, len(dst)+int(count)), dst...)
	}
	off, prev := 0, uint64(0)
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
			return nil, 0, 0, fmt.Errorf("%w: bad gap at posting %d", ErrCorrupt, i)
		}
		off += n
		if off >= len(buf) || buf[off] != storedFreq {
			return nil, 0, 0, fmt.Errorf("%w: bad freq at posting %d", ErrCorrupt, i)
		}
		off++
		doc := prev + gap - 1
		if doc > uint64(^DocID(0)) {
			return nil, 0, 0, fmt.Errorf("%w: doc id overflow", ErrCorrupt)
		}
		if keep {
			dst = append(dst, DocID(doc))
		}
		prev = doc + 1
	}
	return dst, off, DocID(prev - 1), nil
}
