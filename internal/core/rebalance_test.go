package core

import (
	"math/rand"
	"slices"
	"testing"

	"dualindex/internal/directory"
	"dualindex/internal/postings"
)

func fillIndex(t testing.TB, ix *Index, batches, docsPerBatch int) map[postings.WordID][]postings.DocID {
	t.Helper()
	ref := map[postings.WordID][]postings.DocID{}
	r := rand.New(rand.NewSource(33))
	nextDoc := postings.DocID(0)
	for b := 0; b < batches; b++ {
		perWord := map[postings.WordID][]postings.DocID{}
		for d := 0; d < docsPerBatch; d++ {
			nextDoc++
			for i := 0; i < 12; i++ {
				w := postings.WordID(r.Intn(80))
				ds := perWord[w]
				if len(ds) > 0 && ds[len(ds)-1] == nextDoc {
					continue
				}
				perWord[w] = append(ds, nextDoc)
			}
		}
		var ups []WordUpdate
		for w, ds := range perWord {
			ups = append(ups, WordUpdate{Word: w, Count: len(ds), List: postings.FromDocs(ds)})
			ref[w] = append(ref[w], ds...)
		}
		if _, err := ix.ApplyUpdate(ups); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

func checkAgainstRef(t *testing.T, ix *Index, ref map[postings.WordID][]postings.DocID) {
	t.Helper()
	for w, docs := range ref {
		got, err := ix.GetList(w)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Docs(), postings.FromDocs(docs).Docs()) {
			t.Fatalf("word %d: %d postings, want %d (source %v)", w, got.Len(), len(docs), ix.Lookup(w))
		}
	}
}

func TestRebalanceGrowKeepsAnswers(t *testing.T) {
	ix, err := New(storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := fillIndex(t, ix, 5, 30)
	before := ix.BucketLoadFactor()
	if before <= 0 {
		t.Fatal("zero load factor")
	}
	if err := ix.RebalanceBuckets(128, 512); err != nil {
		t.Fatal(err)
	}
	if ix.BucketLoadFactor() >= before {
		t.Errorf("load factor did not drop: %v → %v", before, ix.BucketLoadFactor())
	}
	checkAgainstRef(t, ix, ref)
	// The dual-structure invariant survives the rebalance.
	for w := postings.WordID(0); w < 80; w++ {
		if ix.Directory().Has(w) && ix.Buckets().Contains(w) {
			t.Fatalf("word %d in both structures after rebalance", w)
		}
	}
}

func TestRebalanceShrinkEvictsToLongLists(t *testing.T) {
	ix, err := New(storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := fillIndex(t, ix, 4, 30)
	longBefore := ix.Directory().NumWords()
	// Shrink the bucket space hard: the longest short lists must overflow
	// into long lists.
	if err := ix.RebalanceBuckets(4, 64); err != nil {
		t.Fatal(err)
	}
	if ix.Directory().NumWords() <= longBefore {
		t.Errorf("no evictions on shrink: %d → %d long lists", longBefore, ix.Directory().NumWords())
	}
	checkAgainstRef(t, ix, ref)
	for i, b := 0, ix.Buckets(); i < 4; i++ {
		if load := b.WordsIn(i) + b.PostingsIn(i); load > 64 {
			t.Fatalf("bucket %d over capacity after shrink: %d", i, load)
		}
	}
}

func TestRebalanceSurvivesRestart(t *testing.T) {
	cfg := storeConfig()
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := fillIndex(t, ix, 3, 25)
	if err := ix.RebalanceBuckets(128, 300); err != nil {
		t.Fatal(err)
	}
	// Reopen with the ORIGINAL configuration: the checkpointed geometry must
	// win over the configured one.
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.Buckets().NumBuckets() != 128 || re.cfg.BucketSize != 300 {
		t.Fatalf("reopened geometry %d×%d, want 128×300",
			re.Buckets().NumBuckets(), re.cfg.BucketSize)
	}
	checkAgainstRef(t, re, ref)
}

func TestRebalanceValidation(t *testing.T) {
	ix, err := New(storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.RebalanceBuckets(0, 100); err == nil {
		t.Error("zero buckets accepted")
	}
	if err := ix.RebalanceBuckets(10, 1); err == nil {
		t.Error("unit bucket size accepted")
	}
}

func TestCheckConsistencyCleanIndex(t *testing.T) {
	for name, cfg := range map[string]Config{"sim": simConfig(), "store": storeConfig()} {
		t.Run(name, func(t *testing.T) {
			ix, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.CheckConsistency(); err != nil {
				t.Fatalf("fresh index inconsistent: %v", err)
			}
			if cfg.Store != nil {
				fillIndex(t, ix, 4, 25)
			} else {
				for b := 0; b < 4; b++ {
					var ups []WordUpdate
					for w := 0; w < 40; w++ {
						ups = append(ups, WordUpdate{Word: postings.WordID(w), Count: w%9 + 1})
					}
					if _, err := ix.ApplyUpdate(ups); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := ix.CheckConsistency(); err != nil {
				t.Fatalf("built index inconsistent: %v", err)
			}
		})
	}
}

func TestCheckConsistencyAfterRestartAndRebalance(t *testing.T) {
	cfg := storeConfig()
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillIndex(t, ix, 4, 25)
	if err := ix.RebalanceBuckets(32, 200); err != nil {
		t.Fatal(err)
	}
	if err := ix.CheckConsistency(); err != nil {
		t.Fatalf("post-rebalance: %v", err)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.CheckConsistency(); err != nil {
		t.Fatalf("post-restart: %v", err)
	}
}

func TestCheckConsistencyDetectsCorruption(t *testing.T) {
	ix, err := New(storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	fillIndex(t, ix, 3, 25)
	// Corrupt the directory: point a word's chunk outside the disk.
	words := ix.dir.Words()
	if len(words) == 0 {
		t.Skip("no long lists at this scale")
	}
	w := words[0]
	cs := append([]directory.ChunkRef(nil), ix.dir.Chunks(w)...)
	cs[0].Block = ix.cfg.Geometry.BlocksPerDisk + 5
	if _, err := ix.dir.Replace(w, cs); err != nil {
		t.Fatal(err)
	}
	if err := ix.CheckConsistency(); err == nil {
		t.Fatal("out-of-range chunk not detected")
	}
}

func TestRestartAfterSweep(t *testing.T) {
	cfg := storeConfig()
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := fillIndex(t, ix, 4, 25)
	// Delete a document present in many lists, sweep (which checkpoints),
	// then reopen: the swept state must be durable and consistent.
	victim := postings.DocID(30)
	ix.Delete(victim)
	if err := ix.Sweep(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.DeletedCount() != 0 {
		t.Fatal("swept deletion list survived restart")
	}
	if err := re.CheckConsistency(); err != nil {
		t.Fatalf("post-sweep restart fsck: %v", err)
	}
	for w, docs := range ref {
		want, _ := postings.FromDocs(docs).Without([]postings.DocID{victim})
		got, err := re.GetList(w)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Docs(), want.Docs()) {
			t.Fatalf("word %d: %d postings, want %d", w, got.Len(), want.Len())
		}
	}
}
