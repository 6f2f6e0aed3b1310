package postings

import (
	"fmt"
	"math"
	"slices"
)

// Golomb coding of document gaps — the inverted-list compression of the
// index literature the paper cites as complementary (Zobel, Moffat,
// Sacks-Davis). A gap g is coded as a unary quotient (g-1)/b followed by
// the binary remainder; b is tuned to the list's density. The paper's
// BlockPosting parameter "implicitly models the efficiency of the
// compression algorithm applied to long lists"; this codec (and the varint
// one in codec.go) lets the implied postings-per-block be measured rather
// than assumed — see the ext-compression experiment.

// bitWriter accumulates bits most-significant first.
type bitWriter struct {
	buf  []byte
	bits uint8 // bits used in the final byte
}

func (w *bitWriter) writeBit(b uint64) {
	if w.bits == 0 {
		w.buf = append(w.buf, 0)
		w.bits = 8
	}
	w.bits--
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << w.bits
	}
}

func (w *bitWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.writeBit((v >> uint(i)) & 1)
	}
}

type bitReader struct {
	buf  []byte
	pos  int
	bits uint8
}

func (r *bitReader) readBit() (uint64, error) {
	if r.pos >= len(r.buf) {
		return 0, fmt.Errorf("%w: bit stream exhausted", ErrCorrupt)
	}
	if r.bits == 0 {
		r.bits = 8
	}
	r.bits--
	b := (r.buf[r.pos] >> r.bits) & 1
	if r.bits == 0 {
		r.pos++
	}
	return uint64(b), nil
}

func (r *bitReader) readBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | b
	}
	return v, nil
}

// GolombParameter returns the classic optimal parameter b ≈ 0.69·N/f for a
// list of f postings over a document space of N.
func GolombParameter(totalDocs, listLen int64) uint64 {
	if listLen <= 0 || totalDocs <= listLen {
		return 1
	}
	b := uint64(math.Ceil(0.69 * float64(totalDocs) / float64(listLen)))
	if b < 1 {
		b = 1
	}
	return b
}

// EncodeGolomb appends the Golomb-coded form of l's document gaps to dst,
// each followed by the frequency 1 in unary: one terminator bit. The
// parameter b must match at decode time; callers derive it with
// GolombParameter and store it alongside.
func EncodeGolomb(dst []byte, l *List, b uint64) []byte {
	if b == 0 {
		panic("postings: Golomb parameter 0")
	}
	return encodeGolombFrom(dst, l.Docs(), 0, b)
}

// encodeGolombFrom codes docs with the delta chain seeded at prev (the
// successor of the last doc already coded) — the block codec uses it to
// restart chains at block boundaries.
func encodeGolombFrom(dst []byte, docs []DocID, prev uint64, b uint64) []byte {
	w := &bitWriter{buf: dst}
	// ceil(log2 b) bits hold a remainder < b.
	rbits := uint(0)
	for 1<<rbits < b {
		rbits++
	}
	for _, d := range docs {
		gap := uint64(d) + 1 - prev
		prev = uint64(d) + 1
		q := (gap - 1) / b
		r := (gap - 1) % b
		for i := uint64(0); i < q; i++ {
			w.writeBit(1)
		}
		w.writeBit(0)
		// Truncated binary for the remainder.
		cutoff := uint64(1)<<rbits - b
		if r < cutoff {
			if rbits > 0 {
				w.writeBits(r, rbits-1)
			}
		} else {
			w.writeBits(r+cutoff, rbits)
		}
		// The frequency 1 in unary: no ones, then the terminator.
		w.writeBit(0)
	}
	return w.buf
}

// decodeGolombFrom decodes n postings Golomb-coded with parameter b, the
// delta chain seeded at prev, mirroring encodeGolombFrom, and appends them
// to dst.
func decodeGolombFrom(dst []DocID, buf []byte, n int, b uint64, prev uint64) ([]DocID, error) {
	if b == 0 {
		return nil, fmt.Errorf("%w: Golomb parameter 0", ErrCorrupt)
	}
	r := &bitReader{buf: buf}
	rbits := uint(0)
	for 1<<rbits < b {
		rbits++
	}
	cutoff := uint64(1)<<rbits - b
	// Every posting consumes at least two bits (the gap's unary terminator
	// and the frequency's), so a count beyond 4 postings per buffer byte is
	// corrupt — reject it before it sizes the allocation below.
	if n < 0 || uint64(n) > 4*uint64(len(buf)) {
		return nil, fmt.Errorf("%w: count %d exceeds %d-byte buffer", ErrCorrupt, n, len(buf))
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		var q uint64
		for {
			bit, err := r.readBit()
			if err != nil {
				return nil, err
			}
			if bit == 0 {
				break
			}
			q++
			if q > 1<<40 {
				return nil, fmt.Errorf("%w: runaway unary code", ErrCorrupt)
			}
		}
		var rem uint64
		if rbits > 0 {
			head, err := r.readBits(rbits - 1)
			if err != nil {
				return nil, err
			}
			if head < cutoff {
				rem = head
			} else {
				tail, err := r.readBit()
				if err != nil {
					return nil, err
				}
				rem = head<<1 | tail
				rem -= cutoff
			}
		}
		gap := q*b + rem + 1
		doc := prev + gap - 1
		if doc > uint64(^DocID(0)) {
			return nil, fmt.Errorf("%w: doc id overflow", ErrCorrupt)
		}
		prev = doc + 1
		// The frequency must be 1: a lone terminator bit.
		if bit, err := r.readBit(); err != nil {
			return nil, err
		} else if bit != 0 {
			return nil, fmt.Errorf("%w: frequency above 1 at posting %d", ErrCorrupt, i)
		}
		dst = append(dst, DocID(doc))
	}
	return dst, nil
}

// GolombSize reports the exact byte length EncodeGolomb produces for l.
func GolombSize(l *List, b uint64) int {
	return len(EncodeGolomb(nil, l, b))
}
