package postings

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGolombRoundtripSimple(t *testing.T) {
	for _, b := range []uint64{1, 2, 3, 7, 8, 100} {
		lists := []*List{
			FromDocs(nil),
			FromDocs([]DocID{0}),
			FromDocs([]DocID{0, 1, 2, 3}),
			FromDocs([]DocID{5, 100, 10_000}),
		}
		for _, l := range lists {
			buf := EncodeGolomb(nil, l, b)
			got, err := decodeGolombFrom(nil, buf, l.Len(), b, 0)
			if err != nil {
				t.Fatalf("b=%d: %v", b, err)
			}
			if !slices.Equal(got, l.Docs()) {
				t.Fatalf("b=%d roundtrip: %v vs %v", b, got, l.Docs())
			}
		}
	}
}

func TestGolombParameter(t *testing.T) {
	if b := GolombParameter(1_000_000, 1000); b < 600 || b > 800 {
		t.Errorf("b = %d for N=1e6 f=1e3, want ≈690", b)
	}
	if GolombParameter(100, 100) != 1 {
		t.Error("dense list parameter should be 1")
	}
	if GolombParameter(100, 0) != 1 {
		t.Error("empty list parameter should be 1")
	}
}

func TestGolombBeatsVarintOnSparseLists(t *testing.T) {
	// A sparse list with near-uniform gaps is Golomb's best case; the tuned
	// parameter must beat the byte-aligned varint coding.
	r := rand.New(rand.NewSource(3))
	const totalDocs = 1_000_000
	docs := make([]DocID, 0, 1000)
	d := uint32(0)
	for i := 0; i < 1000; i++ {
		d += uint32(r.Intn(2000)) + 1
		docs = append(docs, DocID(d))
	}
	l := FromDocs(docs)
	b := GolombParameter(totalDocs, int64(l.Len()))
	golomb := GolombSize(l, b)
	varint := EncodedSize(l)
	if golomb >= varint {
		t.Errorf("golomb %d bytes not below varint %d", golomb, varint)
	}
	// Both crush the fixed 8-byte records of the mutable long-list store.
	if golomb >= l.Len()*8/2 {
		t.Errorf("golomb %d bytes not well below fixed %d", golomb, l.Len()*8)
	}
}

func TestGolombDecodeErrors(t *testing.T) {
	if _, err := decodeGolombFrom(nil, nil, 1, 7, 0); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := decodeGolombFrom(nil, []byte{0xFF, 0xFF}, 1, 0, 0); err == nil {
		t.Error("zero parameter accepted")
	}
	// All-ones stream: runaway unary must terminate with an error.
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = 0xFF
	}
	if _, err := decodeGolombFrom(nil, buf, 1, 1, 0); err == nil {
		t.Error("runaway unary accepted")
	}
}

func TestQuickGolombRoundtrip(t *testing.T) {
	f := func(seed int64, n uint8, bRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		l := randomList(r, int(n))
		b := uint64(bRaw%512) + 1
		got, err := decodeGolombFrom(nil, EncodeGolomb(nil, l, b), l.Len(), b, 0)
		return err == nil && slices.Equal(got, l.Docs())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// encodeGolombFreqs is encodeGolombFrom with a frequency per posting, in
// unary: freq-1 ones, then the terminator. With every frequency 1 it
// writes exactly encodeGolombFrom's bits.
func encodeGolombFreqs(docs []DocID, freqs []uint32, b uint64) []byte {
	w := &bitWriter{}
	rbits := uint(0)
	for 1<<rbits < b {
		rbits++
	}
	prev := uint64(0)
	for i, d := range docs {
		gap := uint64(d) + 1 - prev
		prev = uint64(d) + 1
		for q := (gap - 1) / b; q > 0; q-- {
			w.writeBit(1)
		}
		w.writeBit(0)
		if r, cutoff := (gap-1)%b, uint64(1)<<rbits-b; r < cutoff {
			if rbits > 0 {
				w.writeBits(r, rbits-1)
			}
		} else {
			w.writeBits(r+cutoff, rbits)
		}
		for f := freqs[i]; f > 1; f-- {
			w.writeBit(1)
		}
		w.writeBit(0)
	}
	return w.buf
}

// TestQuickGolombWithFrequencies: a stream that codes a frequency other
// than 1 anywhere is refused; one whose frequencies are all 1 is exactly
// EncodeGolomb's and decodes to its list.
func TestQuickGolombWithFrequencies(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		l := randomList(r, int(n)+1)
		freqs := make([]uint32, l.Len())
		ones := r.Intn(2) == 0
		for i := range freqs {
			freqs[i] = 1
			if !ones && r.Intn(4) == 0 {
				freqs[i] = uint32(r.Intn(4)) + 2
			}
		}
		ones = !slices.ContainsFunc(freqs, func(f uint32) bool { return f != 1 })
		b := GolombParameter(int64(l.MaxDoc())+1000, int64(l.Len()))
		buf := encodeGolombFreqs(l.Docs(), freqs, b)
		got, err := decodeGolombFrom(nil, buf, l.Len(), b, 0)
		if !ones {
			return errors.Is(err, ErrCorrupt)
		}
		return err == nil && slices.Equal(got, l.Docs()) && bytes.Equal(buf, EncodeGolomb(nil, l, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeGolomb(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	l := randomList(r, 10000)
	param := GolombParameter(10_000_000, int64(l.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeGolomb(nil, l, param)
	}
}

func BenchmarkDecodeGolomb(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	l := randomList(r, 10000)
	param := GolombParameter(10_000_000, int64(l.Len()))
	buf := EncodeGolomb(nil, l, param)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeGolombFrom(nil, buf, l.Len(), param, 0); err != nil {
			b.Fatal(err)
		}
	}
}
