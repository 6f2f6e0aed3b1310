package longlist

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"

	"dualindex/internal/bucket"
	"dualindex/internal/postings"
)

// Every on-disk posting image, pinned byte for byte: raw records, a varint
// block, a golomb block and a bucket image (postings.Encode, under every
// codec). Each format still carries a frequency of 1 per posting; dropping
// it changes these literals together with the superblock version.
var formatPins = []struct {
	docs                          []postings.DocID
	raw, varint, golomb, bucketIm string
}{
	{
		docs:     []postings.DocID{0, 1, 200, 70000},
		raw:      "00000000010000000100000001000000c8000000010000007011010001000000",
		varint:   "0401010101c70101a8a10401",
		golomb:   "04e47d000100000633cb1980",
		bucketIm: "01070401010101c70101a8a10401",
	},
	{
		docs: []postings.DocID{3, 4, 5, 6, 7, 9, 12, 20},
		raw: "03000000010000000400000001000000050000000100000006000000010000000700000001000000" +
			"09000000010000000c000000010000001400000001000000",
		varint:   "0804010101010101010101020103010801",
		golomb:   "0802030100051d00",
		bucketIm: "01070804010101010101010101020103010801",
	},
	{
		docs:     []postings.DocID{4294967295},
		raw:      "ffffffff01000000",
		varint:   "01808080801001",
		golomb:   "0101ffffffff0f01",
		bucketIm: "010701808080801001",
	},
}

func TestFormatPinned(t *testing.T) {
	for _, pin := range formatPins {
		l := postings.FromDocs(pin.docs)
		got := formatImages(t, l)
		want := [4]string{pin.raw, pin.varint, pin.golomb, pin.bucketIm}
		for i, name := range [4]string{"raw", "varint", "golomb", "bucket"} {
			if got[i] != want[i] {
				t.Errorf("docs %v: %s image %s, want %s", pin.docs, name, got[i], want[i])
			}
		}
	}
}

// formatImages renders l in every on-disk posting format, as hex.
func formatImages(t *testing.T, l *postings.List) [4]string {
	t.Helper()
	var out [4]string
	out[0] = hex.EncodeToString(recordsOf(l, 0, int64(l.Len())))
	for i, id := range []postings.CodecID{postings.CodecVarint, postings.CodecGolomb} {
		c, err := postings.NewBlockCodec(id)
		if err != nil {
			t.Fatal(err)
		}
		enc, n := c.EncodeBlock(l, 0, 4096)
		if n != l.Len() {
			t.Fatalf("%v packed %d of %d postings", id, n, l.Len())
		}
		out[1+i] = hex.EncodeToString(enc)
	}
	s, err := bucket.NewSet(bucket.Config{NumBuckets: 1, BucketSize: 64, TrackPostings: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(7, l.Len(), l); err != nil {
		t.Fatal(err)
	}
	out[3] = hex.EncodeToString(s.EncodeBucket(0, nil))
	return out
}

// recordsOf renders postings [off, off+n) of list as records, unpadded.
func recordsOf(list *postings.List, off, n int64) []byte {
	out := make([]byte, n*PostingBytes)
	writeRecords(out, list.Docs()[off:off+n])
	return out
}

// rawRecords renders (doc, freq) pairs as fixed-width records, whatever
// their values.
func rawRecords(pairs ...uint32) []byte {
	out := make([]byte, 0, 4*len(pairs))
	for _, v := range pairs {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	return out
}

// TestCorruptFrequencyRefused: every posting image carries a frequency of
// 1, and a decoder that meets any other value reports ErrCorrupt instead of
// handing a list on to be scored. One flipped byte must fail the read.
func TestCorruptFrequencyRefused(t *testing.T) {
	block := func(id postings.CodecID, img []byte) func() error {
		return func() error {
			c, err := postings.NewBlockCodec(id)
			if err != nil {
				return err
			}
			_, err = c.DecodeBlock(nil, img)
			return err
		}
	}
	bucketImage := func(img []byte) func() error {
		return func() error {
			s, err := bucket.NewSet(bucket.Config{NumBuckets: 1, BucketSize: 64, TrackPostings: true})
			if err != nil {
				return err
			}
			_, err = s.DecodeBucket(0, img)
			return err
		}
	}
	records := func(img []byte) func() error {
		return func() error {
			_, err := appendRecords(nil, img, int64(len(img)/PostingBytes))
			return err
		}
	}
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"list body, frequency 0", func() error { _, err := postings.DecodeBody([]byte{5, 0}, 1); return err }},
		{"list body, frequency 2", func() error { _, err := postings.DecodeBody([]byte{5, 2}, 1); return err }},
		{"bucket image, frequency 0", bucketImage([]byte{1, 7, 1, 5, 0})},
		{"bucket image, frequency 2", bucketImage([]byte{1, 7, 1, 5, 2})},
		{"varint block, frequency 0", block(postings.CodecVarint, []byte{1, 5, 0})},
		{"varint block, later frequency 2", block(postings.CodecVarint, []byte{2, 5, 1, 3, 2})},
		// count 2, b 1, first posting (0, freq), then doc 1: a gap bit and
		// a unary frequency.
		{"golomb block, first frequency 2", block(postings.CodecGolomb, []byte{2, 1, 0, 2, 0x00})},
		{"golomb block, first frequency 0", block(postings.CodecGolomb, []byte{2, 1, 0, 0, 0x00})},
		{"golomb block, later frequency 3", block(postings.CodecGolomb, []byte{2, 1, 0, 1, 0x60})},
		{"raw records, frequency 0", records(rawRecords(3, 1, 4, 0))},
		{"raw records, frequency 7", records(rawRecords(3, 7, 4, 1))},
		{"raw records, out of order", records(rawRecords(4, 1, 3, 1))},
	} {
		if err := tc.decode(); !errors.Is(err, postings.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}
