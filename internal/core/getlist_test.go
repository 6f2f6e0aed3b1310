package core

import (
	"slices"
	"sync"
	"testing"

	"dualindex/internal/postings"
)

// longListConfig is storeConfig with buckets small enough that most words
// overflow to long lists, most of them over several chunks.
func longListConfig() Config {
	cfg := storeConfig()
	cfg.Buckets, cfg.BucketSize = 8, 32
	return cfg
}

// multiChunkWord returns the long-list word of ix with the most chunks,
// which must be more than one.
func multiChunkWord(t *testing.T, ix *Index) postings.WordID {
	t.Helper()
	best, chunks := postings.WordID(0), 0
	for _, w := range ix.dir.Words() {
		if n := len(ix.dir.Chunks(w)); n > chunks {
			best, chunks = w, n
		}
	}
	if chunks < 2 {
		t.Fatalf("no long list spans two chunks (most: %d)", chunks)
	}
	return best
}

// TestGetListAllocs pins the fused fetch: a multi-chunk long list with no
// deletions is read through a pooled buffer and decoded straight into its
// result, so GetList allocates the result list and its postings, nothing
// per chunk.
func TestGetListAllocs(t *testing.T) {
	ix, err := New(longListConfig())
	if err != nil {
		t.Fatal(err)
	}
	fillIndex(t, ix, 6, 40)
	w := multiChunkWord(t, ix)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ix.GetList(w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("GetList of a %d-chunk list: %v allocations, want at most 2", len(ix.dir.Chunks(w)), allocs)
	}
}

// TestGetListConcurrentExact: GetLists of different words running at once,
// each through its own pooled read buffer, answer exactly what they answer
// one at a time (run it under -race).
func TestGetListConcurrentExact(t *testing.T) {
	ix, err := New(longListConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := fillIndex(t, ix, 6, 40)
	words := ix.dir.Words()
	if len(words) < 4 {
		t.Fatalf("only %d long lists", len(words))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w := words[(g+i*4)%len(words)]
				got, err := ix.GetList(w)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got.Docs(), postings.FromDocs(ref[w]).Docs()) {
					t.Errorf("word %d: %d postings, want %d", w, got.Len(), len(ref[w]))
					return
				}
			}
		}()
	}
	wg.Wait()
}
