package postings

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

func codecList(n int, gap uint32) *List {
	docs := make([]DocID, n)
	doc := uint32(0)
	for i := range docs {
		docs[i] = DocID(doc)
		doc += gap + uint32(i%7)
	}
	return NewList(docs)
}

func TestParseCodec(t *testing.T) {
	cases := []struct {
		name string
		id   CodecID
	}{{"", CodecRaw}, {"raw", CodecRaw}, {"varint", CodecVarint}, {"golomb", CodecGolomb}}
	for _, c := range cases {
		id, err := ParseCodec(c.name)
		if err != nil || id != c.id {
			t.Errorf("ParseCodec(%q) = %v, %v; want %v", c.name, id, err, c.id)
		}
	}
	if _, err := ParseCodec("zstd"); err == nil {
		t.Error("ParseCodec accepted an unknown codec")
	}
	for _, id := range []CodecID{CodecVarint, CodecGolomb} {
		back, err := ParseCodec(id.String())
		if err != nil || back != id {
			t.Errorf("ParseCodec(%v.String()) = %v, %v", id, back, err)
		}
	}
}

func TestNewBlockCodec(t *testing.T) {
	if c, err := NewBlockCodec(CodecRaw); err != nil || c != nil {
		t.Fatalf("NewBlockCodec(raw) = %v, %v; want nil, nil", c, err)
	}
	for _, id := range []CodecID{CodecVarint, CodecGolomb} {
		c, err := NewBlockCodec(id)
		if err != nil || c == nil || c.ID() != id {
			t.Fatalf("NewBlockCodec(%v) = %v, %v", id, c, err)
		}
	}
	if _, err := NewBlockCodec(CodecID(99)); err == nil {
		t.Error("NewBlockCodec accepted an unknown id")
	}
}

func eachCodec(t *testing.T, f func(t *testing.T, c BlockCodec)) {
	for _, id := range []CodecID{CodecVarint, CodecGolomb} {
		c, err := NewBlockCodec(id)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(id.String(), func(t *testing.T) { f(t, c) })
	}
}

func TestBlockCodecRoundTrip(t *testing.T) {
	eachCodec(t, func(t *testing.T, c BlockCodec) {
		for _, l := range []*List{
			codecList(1, 1),
			codecList(100, 1),    // gap=1 dense run
			codecList(100, 1000), // sparse
			codecList(5000, 37),  // multi-block
			NewList([]DocID{0, math.MaxUint32}),
			NewList([]DocID{math.MaxUint32}),
		} {
			for _, bs := range []int{64, 128, 512, 4096} {
				img, blocks, payload := PackBlocks(c, l, 0, l.Len(), bs)
				if len(img) != blocks*bs {
					t.Fatalf("image %d bytes for %d blocks of %d", len(img), blocks, bs)
				}
				if payload <= 0 || payload > len(img) {
					t.Fatalf("payload %d outside (0, %d]", payload, len(img))
				}
				got, err := UnpackBlocks(c, nil, img, bs, l.Len())
				if err != nil {
					t.Fatalf("unpack (n=%d bs=%d): %v", l.Len(), bs, err)
				}
				if !slices.Equal(got, l.Docs()) {
					t.Fatalf("round trip mismatch (n=%d bs=%d)", l.Len(), bs)
				}
			}
		}
	})
}

func TestBlockCodecRespectsBlockSize(t *testing.T) {
	eachCodec(t, func(t *testing.T, c BlockCodec) {
		l := codecList(10000, 5)
		for from := 0; from < l.Len(); {
			enc, n := c.EncodeBlock(l, from, 64)
			if len(enc) > 64 {
				t.Fatalf("block of %d bytes exceeds 64", len(enc))
			}
			if n < 1 {
				t.Fatal("EncodeBlock packed no postings")
			}
			from += n
		}
	})
}

func TestBlockCodecPartialWindow(t *testing.T) {
	// Packing an interior window must not depend on postings outside it.
	eachCodec(t, func(t *testing.T, c BlockCodec) {
		l := codecList(1000, 211)
		img, _, _ := PackBlocks(c, l, 250, 500, 128)
		got, err := UnpackBlocks(c, nil, img, 128, 500)
		if err != nil {
			t.Fatal(err)
		}
		want := NewList(l.Docs()[250:750])
		if !slices.Equal(got, want.Docs()) {
			t.Fatal("window round trip mismatch")
		}
	})
}

func TestPackBlocksLimit(t *testing.T) {
	eachCodec(t, func(t *testing.T, c BlockCodec) {
		l := codecList(5000, 37)
		img, blocks, packed, _ := PackBlocksLimit(c, l, 0, l.Len(), 64, 4)
		if blocks != 4 {
			t.Fatalf("got %d blocks, want the 4-block limit", blocks)
		}
		if packed <= 0 || packed >= l.Len() {
			t.Fatalf("packed %d of %d postings in 4 small blocks", packed, l.Len())
		}
		got, err := UnpackBlocks(c, nil, img, 64, packed)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, NewList(l.Docs()[:packed]).Docs()) {
			t.Fatal("limited pack round trip mismatch")
		}
	})
}

func TestUnpackBlocksTruncated(t *testing.T) {
	eachCodec(t, func(t *testing.T, c BlockCodec) {
		l := codecList(2000, 37)
		img, _, _ := PackBlocks(c, l, 0, l.Len(), 128)
		// Too few blocks for the posting count.
		if _, err := UnpackBlocks(c, nil, img[:128], 128, l.Len()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated image: got %v, want ErrCorrupt", err)
		}
		// A directory posting count smaller than the blocks hold is
		// corruption too — the count must match what was packed.
		if _, err := UnpackBlocks(c, nil, img, 128, 1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("short count: got %v, want ErrCorrupt", err)
		}
	})
}

func TestDecodeBlockCorrupt(t *testing.T) {
	// Decoding arbitrary bytes must fail cleanly, never panic.
	eachCodec(t, func(t *testing.T, c BlockCodec) {
		inputs := [][]byte{
			{},
			{0x00},
			{0xff},
			{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
			{0x02, 0x00}, // count 2, then garbage/truncation
		}
		// A valid block truncated at every length.
		l := codecList(50, 3)
		enc, _ := c.EncodeBlock(l, 0, 4096)
		for i := 0; i < len(enc); i++ {
			inputs = append(inputs, enc[:i])
		}
		for _, in := range inputs {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("DecodeBlock(%x) panicked: %v", in, r)
					}
				}()
				c.DecodeBlock(nil, in)
			}()
		}
	})
}

func TestGolombBlockSizeExact(t *testing.T) {
	for _, n := range []int{1, 2, 17, 400} {
		for _, gap := range []uint32{1, 7, 5000} {
			docs := codecList(n, gap).Docs()
			if got, want := golombBlockSize(docs), len(encodeGolombBlock(docs)); got != want {
				t.Fatalf("golombBlockSize(n=%d gap=%d) = %d, encoded %d", n, gap, got, want)
			}
		}
	}
}

func TestCompressedSmallerThanRaw(t *testing.T) {
	// The point of the exercise: dense long lists take fewer blocks encoded
	// than the fixed 8-byte records would.
	eachCodec(t, func(t *testing.T, c BlockCodec) {
		l := codecList(4096, 1)
		const bs = 512
		rawBlocks := (l.Len()*PostingSize + bs - 1) / bs
		_, blocks, _ := PackBlocks(c, l, 0, l.Len(), bs)
		if blocks >= rawBlocks {
			t.Fatalf("%v: %d encoded blocks, raw needs %d", c.ID(), blocks, rawBlocks)
		}
	})
}

// PostingSize mirrors longlist.PostingBytes without importing it (that would
// cycle); pinned by TestPostingSizeMatches in the longlist package.
const PostingSize = 8

func ExampleCodecID_String() {
	fmt.Println(CodecRaw, CodecVarint, CodecGolomb)
	// Output: raw varint golomb
}
