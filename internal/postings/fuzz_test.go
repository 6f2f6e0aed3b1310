package postings

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// Fuzz targets for the two compressing codecs. The seed corpus covers the
// interesting shapes by construction — gap=1 runs, maximal doc ids, huge
// gaps — and runs as plain unit tests under `go test` (and so in `make
// check`); `go test -fuzz=FuzzVarint ./internal/postings/` explores further.

// fuzzList derives a sorted posting list from raw fuzz bytes: each 4-byte
// group is a gap.
func fuzzList(data []byte) *List {
	docs := make([]DocID, 0, len(data)/4)
	doc := uint64(0)
	for i := 0; i+4 <= len(data); i += 4 {
		gap := uint64(data[i]) | uint64(data[i+1])<<8 | uint64(data[i+2])<<16 | uint64(data[i+3])<<24
		doc += gap % (1 << 20)
		if i > 0 {
			doc++ // strictly increasing after the first group
		}
		if doc > uint64(math.MaxUint32) {
			break
		}
		docs = append(docs, DocID(doc))
	}
	if len(docs) == 0 {
		return nil
	}
	return NewList(docs)
}

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	// gap=1 run: every 4-byte group advances the doc id by exactly one.
	f.Add(make([]byte, 4*64))
	// The largest gaps after a small first id.
	f.Add([]byte{
		0x01, 0x00, 0x00, 0x00,
		0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff,
	})
	// Sparse gaps near the modulus.
	f.Add([]byte{0xff, 0xff, 0x0f, 0x00, 0xfe, 0xff, 0x0f, 0x00})
}

func FuzzVarintRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		l := fuzzList(data)
		if l == nil {
			return
		}
		c, _ := NewBlockCodec(CodecVarint)
		fuzzRoundTrip(t, c, l)
	})
}

func FuzzGolombRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		l := fuzzList(data)
		if l == nil {
			return
		}
		c, _ := NewBlockCodec(CodecGolomb)
		fuzzRoundTrip(t, c, l)
		// Also the flat (non-block) coder with a fuzz-derived parameter.
		b := GolombParameter(int64(l.MaxDoc()), int64(l.Len()))
		enc := EncodeGolomb(nil, l, b)
		got, err := decodeGolombFrom(nil, enc, l.Len(), b, 0)
		if err != nil {
			t.Fatalf("decodeGolombFrom: %v", err)
		}
		if !slices.Equal(got, l.Docs()) {
			t.Fatal("flat golomb round trip mismatch")
		}
	})
}

func fuzzRoundTrip(t *testing.T, c BlockCodec, l *List) {
	for _, bs := range []int{64, 256, 4096} {
		img, blocks, _ := PackBlocks(c, l, 0, l.Len(), bs)
		if blocks*bs != len(img) {
			t.Fatalf("bs=%d: image %d bytes for %d blocks", bs, len(img), blocks)
		}
		got, err := UnpackBlocks(c, nil, img, bs, l.Len())
		if err != nil {
			t.Fatalf("bs=%d: unpack: %v", bs, err)
		}
		if !slices.Equal(got, l.Docs()) {
			t.Fatalf("bs=%d: round trip mismatch", bs)
		}
	}
}

// FuzzDecodeArbitrary feeds raw bytes to every decoder: they must return
// ErrCorrupt-style errors on garbage and truncation, never panic or hang.
// What the list decoder accepts must re-encode to exactly the bytes it
// consumed, so it cannot accept a frequency other than 1, and the body
// readers must accept exactly the same bodies after the count.
func FuzzDecodeArbitrary(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x00}, uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(2))
	// Truncated valid varint block (count says 2, one posting present).
	trunc := binary.AppendUvarint(nil, 2)
	trunc = binary.AppendUvarint(trunc, 5)
	trunc = binary.AppendUvarint(trunc, 1)
	f.Add(trunc, uint8(0))
	// A max-uint64 gap: decoders must reject the doc-id overflow.
	over := binary.AppendUvarint(nil, 1)
	over = binary.AppendUvarint(over, math.MaxUint64)
	over = binary.AppendUvarint(over, 1)
	f.Add(over, uint8(0))
	// Well-formed images whose frequency is not 1: every decoder refuses
	// them (TestCorruptFrequencyRefused in the longlist package).
	f.Add([]byte{1, 5, 0}, uint8(0))
	f.Add([]byte{1, 5, 2}, uint8(1))
	f.Add([]byte{2, 1, 0, 2, 0x00}, uint8(2))
	f.Add([]byte{2, 1, 0, 1, 0x60}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		switch which % 3 {
		case 0:
			l, n, err := decode(data)
			if err == nil && !bytes.Equal(Encode(nil, l), data[:n]) {
				t.Fatalf("decode(%x) = %v, which re-encodes to %x", data[:n], l.Docs(), Encode(nil, l))
			}
			if count, k := Uvarint(data); k > 0 && count <= math.MaxInt32 {
				m, last, serr := ScanBody(data[k:], int(count))
				body, derr := DecodeBody(data[k:], int(count))
				if (serr == nil) != (err == nil) || (derr == nil) != (err == nil) {
					t.Fatalf("%x: decode err %v, ScanBody err %v, DecodeBody err %v", data, err, serr, derr)
				}
				if err == nil && (m != n-k || !slices.Equal(body.Docs(), l.Docs()) || (count > 0 && last != l.MaxDoc())) {
					t.Fatalf("%x: body readers disagree with decode: %d bytes, last %d, %v", data, m, last, body.Docs())
				}
			}
		case 1:
			c, _ := NewBlockCodec(CodecVarint)
			c.DecodeBlock(nil, data)
		case 2:
			c, _ := NewBlockCodec(CodecGolomb)
			c.DecodeBlock(nil, data)
		}
	})
}
