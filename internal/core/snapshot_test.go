package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dualindex/internal/postings"
)

// TestSnapshotStableDuringApply reads a snapshot from several goroutines
// while ApplyUpdate appends to, inserts into and evicts from every bucket of
// the live index. Every answer must equal the snapshot's pre-update answer.
// Under the race detector it also checks that the snapshot and the live
// bucket set share nothing the update writes.
func TestSnapshotStableDuringApply(t *testing.T) {
	cfg := storeConfig()
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nb := postings.WordID(cfg.Buckets)
	docs := func(from, n int) *postings.List {
		ds := make([]postings.DocID, n)
		for i := range ds {
			ds[i] = postings.DocID(from + i)
		}
		return postings.FromDocs(ds)
	}
	// Words [0, 2nb) stay short: two per bucket. Words [2nb, 3nb) overflow
	// their buckets at once and become long lists.
	next := 1
	for batch := 0; batch < 3; batch++ {
		var ups []WordUpdate
		for w := postings.WordID(0); w < 2*nb; w++ {
			ups = append(ups, WordUpdate{Word: w, Count: 3, List: docs(next, 3)})
		}
		for w := 2 * nb; w < 3*nb; w++ {
			ups = append(ups, WordUpdate{Word: w, Count: 300, List: docs(next, 300)})
		}
		if _, err := ix.ApplyUpdate(ups); err != nil {
			t.Fatal(err)
		}
		next += 300
	}

	snap := ix.Snapshot()
	want := make([]*postings.List, 4*nb)
	for w := range want {
		if want[w], err = snap.GetList(postings.WordID(w)); err != nil {
			t.Fatal(err)
		}
	}

	// Per bucket b: append to short word b, grow short word nb+b past the
	// bucket so it is evicted, and insert the new word 3nb+b.
	var ups []WordUpdate
	for w := postings.WordID(0); w < nb; w++ {
		ups = append(ups,
			WordUpdate{Word: w, Count: 2, List: docs(next, 2)},
			WordUpdate{Word: nb + w, Count: 240, List: docs(next, 240)},
			WordUpdate{Word: 3*nb + w, Count: 1, List: docs(next, 1)},
		)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := false; !last; {
				last = done.Load()
				for w := range want {
					got, err := snap.GetList(postings.WordID(w))
					if err != nil {
						t.Errorf("word %d: %v", w, err)
						return
					}
					if !slices.Equal(got.Docs(), want[w].Docs()) {
						t.Errorf("word %d: snapshot answer changed during the update: %d postings, want %d",
							w, got.Len(), want[w].Len())
						return
					}
				}
			}
		}()
	}
	st, err := ix.ApplyUpdate(ups)
	done.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// The update did what the test claims, in every bucket.
	if st.Evictions < int(nb) {
		t.Fatalf("update evicted %d lists, want at least one per bucket (%d)", st.Evictions, nb)
	}
	for w := postings.WordID(0); w < nb; w++ {
		if ix.Lookup(w) != SourceBucket || ix.Lookup(nb+w) != SourceLong || ix.Lookup(3*nb+w) != SourceBucket {
			t.Fatalf("bucket %d: sources %v/%v/%v, want bucket/long/bucket",
				w, ix.Lookup(w), ix.Lookup(nb+w), ix.Lookup(3*nb+w))
		}
	}
}
