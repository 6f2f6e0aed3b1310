package core

import (
	"slices"
	"sync"
	"testing"

	"dualindex/internal/disk"
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

// TestGetListShortAllocs: a short list is decoded from its bucket body
// into the result and filtered in place, so GetList allocates the result
// list and its postings whether or not the list holds a deleted document.
func TestGetListShortAllocs(t *testing.T) {
	ix, err := New(storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := fillIndex(t, ix, 3, 40)
	w, most := postings.WordID(0), 0
	ix.buckets.ForEachWord(func(v postings.WordID, count int) {
		if count > most {
			w, most = v, count
		}
	})
	if most < 3 {
		t.Fatalf("no short list holds 3 postings (most: %d)", most)
	}
	measure := func(name string, want []postings.DocID) {
		t.Helper()
		got, err := ix.GetList(w)
		if err != nil || !slices.Equal(got.Docs(), want) {
			t.Fatalf("%s: GetList = %v, %v; want %v", name, got.Docs(), err, want)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ix.GetList(w); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("%s: GetList of a %d-posting short list: %v allocations, want at most 2", name, most, allocs)
		}
	}
	measure("no deletions", ref[w])
	ix.Delete(ref[w][1])
	measure("one deleted", slices.Delete(slices.Clone(ref[w]), 1, 2))
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

// TestGetListLeavesTraceAlone: query reads are counted but not traced, so
// a serving index's trace does not grow with the queries it answers.
// 1,000 GetLists, half against the index and half against a snapshot,
// raise ReadOps, ReadBlocks and each disk's read counters by exactly the
// chunks they read and leave the trace as it was.
func TestGetListLeavesTraceAlone(t *testing.T) {
	ix, err := New(longListConfig())
	if err != nil {
		t.Fatal(err)
	}
	fillIndex(t, ix, 6, 40)
	a := ix.Array()
	geo := a.Geometry()
	traced, ops, blocks := a.Trace().Len(), a.ReadOps(), a.ReadBlocks()
	perDisk := make([]disk.DiskOps, geo.NumDisks)
	for d := range perDisk {
		perDisk[d] = a.DiskOpCounts(d)
	}
	words := ix.dir.Words()
	snap := ix.Snapshot()
	var wantOps, wantBlocks int64
	wantDisk := make([]disk.DiskOps, geo.NumDisks)
	for i := 0; i < 1000; i++ {
		w := words[i%len(words)]
		for _, c := range ix.dir.Chunks(w) {
			if n := c.DataBlocks(ix.cfg.BlockPosting); n > 0 {
				wantOps++
				wantBlocks += n
				wantDisk[c.Disk].ReadOps++
				wantDisk[c.Disk].ReadBlocks += n
			}
		}
		get := ix.GetList
		if i%2 == 1 {
			get = snap.GetList
		}
		if _, err := get(w); err != nil {
			t.Fatal(err)
		}
	}
	if wantOps == 0 {
		t.Fatal("no GetList read a chunk; the check is vacuous")
	}
	if got := a.Trace().Len(); got != traced {
		t.Errorf("trace grew from %d to %d ops over 1,000 GetLists", traced, got)
	}
	if got := a.ReadOps() - ops; got != wantOps {
		t.Errorf("ReadOps rose by %d, want %d", got, wantOps)
	}
	if got := a.ReadBlocks() - blocks; got != wantBlocks {
		t.Errorf("ReadBlocks rose by %d, want %d", got, wantBlocks)
	}
	for d := range perDisk {
		got := a.DiskOpCounts(d)
		if got.ReadOps-perDisk[d].ReadOps != wantDisk[d].ReadOps || got.ReadBlocks-perDisk[d].ReadBlocks != wantDisk[d].ReadBlocks {
			t.Errorf("disk %d: reads rose by %d ops, %d blocks, want %d, %d", d,
				got.ReadOps-perDisk[d].ReadOps, got.ReadBlocks-perDisk[d].ReadBlocks, wantDisk[d].ReadOps, wantDisk[d].ReadBlocks)
		}
	}
}
