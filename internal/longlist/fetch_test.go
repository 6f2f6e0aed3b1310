package longlist

import (
	"errors"
	"slices"
	"testing"

	"dualindex/internal/directory"
	"dualindex/internal/disk"
	"dualindex/internal/postings"
)

// fetchManager is a store-backed manager on one small disk, raw or packing
// through the given codec.
func fetchManager(t testing.TB, id postings.CodecID) *Manager {
	t.Helper()
	geo := disk.Geometry{NumDisks: 1, BlocksPerDisk: 1024, BlockSize: 64}
	a, err := disk.NewArray(geo, disk.NewMemStore(geo.NumDisks, geo.BlockSize))
	if err != nil {
		t.Fatal(err)
	}
	c, err := postings.NewBlockCodec(id)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManagerCodec(UpdateOptimized(), a, directory.New(), int64(geo.BlockSize/PostingBytes), c)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReadChunksRefusesChunkOutOfOrder: a long list's chunks hold ascending
// runs of postings, and a chunk whose first posting does not exceed the
// previous chunk's last is corrupt, whether it repeats that posting or
// goes below it, raw or codec-packed.
func TestReadChunksRefusesChunkOutOfOrder(t *testing.T) {
	for _, id := range []postings.CodecID{postings.CodecRaw, postings.CodecVarint, postings.CodecGolomb} {
		t.Run(id.String(), func(t *testing.T) {
			m := fetchManager(t, id)
			const w = 5
			for _, l := range []*postings.List{seq(10, 30), seq(40, 30)} {
				if err := m.Append(w, int64(l.Len()), l); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.array.Commit(); err != nil {
				t.Fatal(err)
			}
			chunks := m.dir.Chunks(w)
			if len(chunks) != 2 {
				t.Fatalf("%d chunks, want 2", len(chunks))
			}
			if _, l, err := m.ReadChunks(w, chunks); err != nil || !slices.Equal(l.Docs(), seq(10, 60).Docs()) {
				t.Fatalf("in order: err %v", err)
			}
			for name, order := range map[string][]directory.ChunkRef{
				"first below the last":    {chunks[1], chunks[0]},
				"first equal to the last": {chunks[0], chunks[0]},
			} {
				if _, _, err := m.ReadChunks(w, order); !errors.Is(err, postings.ErrCorrupt) {
					t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
				}
			}
		})
	}
}

// FuzzReadChunks reads arbitrary images as the chunks of one long list:
// image is cut into chunks of sizes drawn from cuts, each chunk claiming
// the postings its bytes hold as raw records, or a count drawn from cuts
// under a codec. ReadChunks must return a strictly ascending list of
// exactly the claimed postings or refuse with an error, and never panic.
func FuzzReadChunks(f *testing.F) {
	records := func(docs ...postings.DocID) []byte {
		b := make([]byte, len(docs)*PostingBytes)
		writeRecords(b, docs)
		return b
	}
	f.Add(records(1, 2, 3, 9, 10), []byte{3}, uint8(0))
	f.Add(records(1, 2, 3, 3, 10), []byte{3}, uint8(0))
	f.Add(records(5, 6, 1, 2), []byte{2}, uint8(0))
	f.Add(records(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), []byte{1, 8, 2}, uint8(0))
	for _, id := range []postings.CodecID{postings.CodecVarint, postings.CodecGolomb} {
		c, err := postings.NewBlockCodec(id)
		if err != nil {
			f.Fatal(err)
		}
		first, _, _ := postings.PackBlocks(c, seq(1, 40), 0, 40, 64)
		second, _, _ := postings.PackBlocks(c, seq(41, 40), 0, 40, 64)
		f.Add(append(first, second...), []byte{byte(len(first) / 64), 40, 40}, uint8(id))
		f.Add(append(second, first...), []byte{byte(len(second) / 64), 40, 40}, uint8(id))
	}
	f.Fuzz(func(t *testing.T, image, cuts []byte, codec uint8) {
		id := postings.CodecID(codec % 3)
		m := fetchManager(t, id)
		bs := m.array.Geometry().BlockSize
		if len(image) > 64*bs {
			image = image[:64*bs]
		}
		// Lay the image out as consecutive chunks on disk 0.
		var chunks []directory.ChunkRef
		block := int64(0)
		for i := 0; len(image) > 0; i++ {
			size := len(image)
			if i < len(cuts) && cuts[i] > 0 {
				if id == postings.CodecRaw {
					size = min(size, int(cuts[i])*PostingBytes)
				} else {
					size = min(size, int(cuts[i])*bs)
				}
			}
			piece := image[:size]
			image = image[size:]
			blocks := m.array.Geometry().BlocksFor(int64(size))
			img := make([]byte, blocks*int64(bs))
			copy(img, piece)
			if err := m.array.WriteBlocksAt(0, block, blocks, img, disk.TagLong); err != nil {
				t.Fatal(err)
			}
			c := directory.ChunkRef{Disk: 0, Block: block, Blocks: blocks}
			if id == postings.CodecRaw {
				c.Postings = int64(size / PostingBytes)
			} else {
				c.EncBlocks = blocks
				c.Postings = 1
				if j := len(chunks) + len(cuts)/2; j < len(cuts) {
					c.Postings = max(1, int64(cuts[j]))
				}
			}
			c.Capacity = c.Postings
			chunks = append(chunks, c)
			block += blocks
		}
		var want int64
		for _, c := range chunks {
			want += c.Postings
		}
		total, l, err := m.ReadChunks(1, chunks)
		if err != nil {
			return
		}
		docs := l.Docs()
		if total != want || int64(len(docs)) != want {
			t.Fatalf("read %d postings (total %d), chunks claim %d", len(docs), total, want)
		}
		for i := 1; i < len(docs); i++ {
			if docs[i] <= docs[i-1] {
				t.Fatalf("posting %d: %d does not ascend above %d", i, docs[i], docs[i-1])
			}
		}
	})
}
