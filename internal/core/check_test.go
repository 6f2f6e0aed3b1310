package core

import (
	"fmt"
	"strings"
	"testing"

	"dualindex/internal/directory"
	"dualindex/internal/postings"
)

// corruptibleIndex builds a store-mode index with at least two long-listed
// words, so each test can break a different invariant in place. Tests here
// reach into ix.dir and ix.buckets directly — they are package-internal
// fsck tests, corrupting exactly one structure and asserting
// CheckConsistency names it.
func corruptibleIndex(t *testing.T) (*Index, []postings.WordID) {
	t.Helper()
	cfg := storeConfig()
	// Shrink the bucket space so the corpus overflows it: evictions are
	// what create the long lists these tests corrupt.
	cfg.Buckets = 8
	cfg.BucketSize = 16
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillIndex(t, ix, 4, 30)
	words := ix.dir.Words()
	if len(words) < 2 {
		t.Fatalf("corpus produced %d long lists; need at least 2", len(words))
	}
	if err := ix.CheckConsistency(); err != nil {
		t.Fatalf("index inconsistent before corruption: %v", err)
	}
	return ix, words
}

// wantError asserts the checker fails and its message carries the phrase
// that identifies the broken invariant.
func wantError(t *testing.T, err error, phrase string) {
	t.Helper()
	if err == nil {
		t.Fatalf("CheckConsistency passed; want error containing %q", phrase)
	}
	if !strings.Contains(err.Error(), phrase) {
		t.Fatalf("CheckConsistency error = %q; want it to contain %q", err, phrase)
	}
}

// TestCheckConsistencyDoubleListedWord breaks the dual-structure invariant:
// a word with a long list is also inserted into the bucket space.
func TestCheckConsistencyDoubleListedWord(t *testing.T) {
	ix, words := corruptibleIndex(t)
	w := words[0]
	l := postings.FromDocs([]postings.DocID{1, 2, 3})
	if _, err := ix.buckets.Add(w, l.Len(), l); err != nil {
		t.Fatal(err)
	}
	wantError(t, ix.CheckConsistency(), "has both a short and a long list")
}

// TestCheckConsistencyOverlappingChunks points one word's chunk at another
// word's blocks: two lists claiming the same disk region.
func TestCheckConsistencyOverlappingChunks(t *testing.T) {
	ix, words := corruptibleIndex(t)
	victim, squatter := words[0], words[1]
	target := ix.dir.Chunks(victim)[0]
	cs := append([]directory.ChunkRef(nil), ix.dir.Chunks(squatter)...)
	cs[0].Disk = target.Disk
	cs[0].Block = target.Block
	if _, err := ix.dir.Replace(squatter, cs); err != nil {
		t.Fatal(err)
	}
	wantError(t, ix.CheckConsistency(), "overlaps")
}

// TestCheckConsistencyChunkOutsideDisk corrupts a directory entry's
// placement: the chunk points past the end of its disk.
func TestCheckConsistencyChunkOutsideDisk(t *testing.T) {
	ix, words := corruptibleIndex(t)
	w := words[0]
	cs := append([]directory.ChunkRef(nil), ix.dir.Chunks(w)...)
	cs[0].Block = ix.cfg.Geometry.BlocksPerDisk - cs[0].Blocks + 1
	if _, err := ix.dir.Replace(w, cs); err != nil {
		t.Fatal(err)
	}
	wantError(t, ix.CheckConsistency(), "chunk outside disk")
}

// TestDirectoryRejectsInvalidChunk: a chunk whose accounting is broken
// (more postings than capacity) never reaches the directory — Replace
// validates it up front, which is why CheckConsistency's per-chunk Validate
// arm is defense-in-depth (reachable only through decode corruption).
func TestDirectoryRejectsInvalidChunk(t *testing.T) {
	ix, words := corruptibleIndex(t)
	w := words[0]
	cs := append([]directory.ChunkRef(nil), ix.dir.Chunks(w)...)
	cs[0].Postings = cs[0].Capacity + 1
	_, err := ix.dir.Replace(w, cs)
	wantError(t, err, "invalid chunk")
}

// TestZeroedRawBlockIsAnError zeroes the first block of a raw long list in
// the store, as an unwritten or corrupt block would read: GetList and
// CheckConsistency must report it as an error naming the chunk, not panic.
// Its first record reads as document 0 with frequency 0, which is refused.
func TestZeroedRawBlockIsAnError(t *testing.T) {
	ix, words := corruptibleIndex(t)
	var w postings.WordID
	var c directory.ChunkRef
	for _, cand := range words {
		if cs := ix.dir.Chunks(cand); cs[0].Postings >= 2 {
			w, c = cand, cs[0]
			break
		}
	}
	if c.Postings < 2 {
		t.Fatal("no long list with a chunk of two or more postings")
	}
	if err := ix.cfg.Store.WriteAt(c.Disk, c.Block, make([]byte, ix.cfg.Geometry.BlockSize)); err != nil {
		t.Fatal(err)
	}
	_, err := ix.GetList(w)
	wantError(t, err, fmt.Sprintf("word %d chunk at %d/%d", w, c.Disk, c.Block))
	wantError(t, ix.CheckConsistency(), "record 0 has frequency 0")
}
