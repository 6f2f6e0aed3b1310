package directory

import (
	"bytes"
	"testing"

	"dualindex/internal/postings"
)

func TestEncodeExtRoundTrip(t *testing.T) {
	d := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.AppendChunk(1, ChunkRef{Disk: 0, Block: 10, Blocks: 4, Postings: 100, Capacity: 120, EncBlocks: 2}))
	must(d.AppendChunk(1, ChunkRef{Disk: 2, Block: 77, Blocks: 8, Postings: 300, Capacity: 300, EncBlocks: 8}))
	must(d.AppendChunk(9, ChunkRef{Disk: 1, Block: 5, Blocks: 1, Postings: 3, Capacity: 40, EncBlocks: 1}))

	img := d.EncodeExt(nil)
	got, err := DecodeExt(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []postings.WordID{1, 9} {
		a, b := d.Chunks(w), got.Chunks(w)
		if len(a) != len(b) {
			t.Fatalf("word %d: %d chunks decoded, want %d", w, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("word %d chunk %d: %+v != %+v", w, i, b[i], a[i])
			}
		}
	}
	if got.totalChunks != d.totalChunks || got.TotalPostings() != d.TotalPostings() {
		t.Fatal("totals not rebuilt")
	}
}

func TestEncodeUnchangedByEncBlocks(t *testing.T) {
	// The raw 5-uvarint format must not see EncBlocks: a raw checkpoint's
	// bytes are pinned by the byte-identical-trace invariant.
	a, b := New(), New()
	if err := a.AppendChunk(3, ChunkRef{Disk: 1, Block: 2, Blocks: 3, Postings: 4, Capacity: 9}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendChunk(3, ChunkRef{Disk: 1, Block: 2, Blocks: 3, Postings: 4, Capacity: 9, EncBlocks: 3}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Encode(nil), b.Encode(nil)) {
		t.Fatal("Encode output depends on EncBlocks")
	}
}

func TestGrowLastChunkEnc(t *testing.T) {
	d := New()
	if err := d.AppendChunk(7, ChunkRef{Disk: 0, Block: 0, Blocks: 4, Postings: 50, Capacity: 200, EncBlocks: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.GrowLastChunkEnc(7, 60, 2); err != nil {
		t.Fatal(err)
	}
	last, _ := d.LastChunk(7)
	if last.Postings != 110 || last.EncBlocks != 2 {
		t.Fatalf("after grow: %+v", last)
	}
	// Shrinking the encoded extent or exceeding the allocation is refused.
	if err := d.GrowLastChunkEnc(7, 10, 1); err == nil {
		t.Fatal("accepted a shrinking encoded extent")
	}
	if err := d.GrowLastChunkEnc(7, 10, 5); err == nil {
		t.Fatal("accepted an extent beyond the allocation")
	}
	// A failed grow must leave the extent untouched.
	if err := d.GrowLastChunkEnc(7, 1000, 3); err == nil {
		t.Fatal("accepted a grow beyond capacity")
	}
	last, _ = d.LastChunk(7)
	if last.Postings != 110 || last.EncBlocks != 2 {
		t.Fatalf("failed grow mutated the chunk: %+v", last)
	}
}

func TestDataBlocks(t *testing.T) {
	raw := ChunkRef{Blocks: 10, Postings: 1025, Capacity: 5120}
	if got := raw.DataBlocks(512); got != 3 {
		t.Fatalf("raw DataBlocks = %d, want 3", got)
	}
	if got := (ChunkRef{Blocks: 10}).DataBlocks(512); got != 0 {
		t.Fatalf("empty DataBlocks = %d, want 0", got)
	}
	enc := ChunkRef{Blocks: 10, Postings: 1025, Capacity: 5120, EncBlocks: 2}
	if got := enc.DataBlocks(512); got != 2 {
		t.Fatalf("encoded DataBlocks = %d, want 2", got)
	}
}
