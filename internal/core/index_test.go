package core

import (
	"math/rand"
	"slices"
	"testing"

	"dualindex/internal/bucket"
	"dualindex/internal/corpus"
	"dualindex/internal/disk"
	"dualindex/internal/longlist"
	"dualindex/internal/postings"
)

// simConfig is a small simulation-mode configuration.
func simConfig() Config {
	return Config{
		Buckets:      64,
		BucketSize:   256,
		BlockPosting: 10,
		Geometry:     disk.Geometry{NumDisks: 2, BlocksPerDisk: 65536, BlockSize: 512},
		Policy:       longlist.NewRecommended(),
	}
}

// storeConfig is a small real-data configuration.
func storeConfig() Config {
	geo := disk.Geometry{NumDisks: 2, BlocksPerDisk: 65536, BlockSize: 256}
	return Config{
		Buckets:      64,
		BucketSize:   256,
		BlockPosting: int64(geo.BlockSize / longlist.PostingBytes),
		Geometry:     geo,
		Policy:       longlist.NewRecommended(),
		Store:        disk.NewMemStore(geo.NumDisks, geo.BlockSize),
	}
}

func TestNewValidation(t *testing.T) {
	cfg := simConfig()
	cfg.Buckets = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero buckets accepted")
	}
	cfg = simConfig()
	cfg.Geometry.NumDisks = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero disks accepted")
	}
	cfg = storeConfig()
	cfg.BlockPosting = 99
	if _, err := New(cfg); err == nil {
		t.Error("store with wrong BlockPosting accepted")
	}
}

func TestNewRefusesNonPositiveBlockPosting(t *testing.T) {
	for _, bp := range []int64{0, -1} {
		cfg := simConfig()
		cfg.BlockPosting = bp
		if _, err := New(cfg); err == nil {
			t.Errorf("BlockPosting %d accepted", bp)
		}
	}
}

func upd(w postings.WordID, docs ...postings.DocID) WordUpdate {
	return WordUpdate{Word: w, Count: len(docs), List: postings.FromDocs(docs)}
}

func TestApplyUpdateCategorisesWords(t *testing.T) {
	ix, err := New(simConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ix.ApplyUpdate([]WordUpdate{
		{Word: 1, Count: 3}, {Word: 2, Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.NewWords != 2 || st.BucketWords != 0 || st.LongWords != 0 {
		t.Fatalf("first update stats: %+v", st)
	}
	st, err = ix.ApplyUpdate([]WordUpdate{
		{Word: 1, Count: 2}, {Word: 3, Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.NewWords != 1 || st.BucketWords != 1 {
		t.Fatalf("second update stats: %+v", st)
	}
	if st.Words != 2 || st.LongWords != 0 {
		t.Errorf("second update stats: %+v", st)
	}
	if ix.Batches() != 2 {
		t.Errorf("batches = %d", ix.Batches())
	}
}

func TestApplyUpdateRejectsBadCount(t *testing.T) {
	ix, _ := New(simConfig())
	if _, err := ix.ApplyUpdate([]WordUpdate{{Word: 1, Count: 0}}); err == nil {
		t.Fatal("zero count accepted")
	}
}

func TestOverflowPromotesToLongList(t *testing.T) {
	ix, _ := New(simConfig())
	// Word 0 receives more postings than a whole bucket can hold.
	st, err := ix.ApplyUpdate([]WordUpdate{{Word: 0, Count: 300}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
	if ix.Lookup(0) != SourceLong {
		t.Fatalf("word 0 source = %v, want long", ix.Lookup(0))
	}
	if listLen(ix, 0) != 300 {
		t.Fatalf("ListLen = %d", listLen(ix, 0))
	}
	// Subsequent updates for word 0 are long-word appends.
	st, err = ix.ApplyUpdate([]WordUpdate{{Word: 0, Count: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if st.LongWords != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if listLen(ix, 0) != 305 {
		t.Fatalf("ListLen = %d", listLen(ix, 0))
	}
}

func TestDualStructureInvariant(t *testing.T) {
	// A word never has both a short and a long list.
	ix, _ := New(simConfig())
	r := rand.New(rand.NewSource(5))
	for batch := 0; batch < 10; batch++ {
		var updates []WordUpdate
		seen := map[postings.WordID]bool{}
		for i := 0; i < 100; i++ {
			w := postings.WordID(r.Intn(200))
			if seen[w] {
				continue
			}
			seen[w] = true
			updates = append(updates, WordUpdate{Word: w, Count: r.Intn(30) + 1})
		}
		if _, err := ix.ApplyUpdate(updates); err != nil {
			t.Fatal(err)
		}
	}
	for w := postings.WordID(0); w < 200; w++ {
		if ix.Directory().Has(w) && ix.Buckets().Contains(w) {
			t.Fatalf("word %d has both a short and a long list", w)
		}
	}
}

func TestFlushChargesBucketAndDirectoryWrites(t *testing.T) {
	ix, _ := New(simConfig())
	if _, err := ix.ApplyUpdate([]WordUpdate{{Word: 1, Count: 1}}); err != nil {
		t.Fatal(err)
	}
	tr := ix.Array().Trace()
	var buckets, dirs int
	for _, op := range tr.Batch(0) {
		switch op.Tag {
		case disk.TagBucket:
			buckets++
		case disk.TagDirectory:
			dirs++
		}
	}
	// One bucket write per disk, one directory write, one superblock write.
	if buckets != 2 {
		t.Errorf("bucket writes = %d, want 2 (one per disk)", buckets)
	}
	if dirs != 2 {
		t.Errorf("directory writes = %d, want 2 (directory + superblock)", dirs)
	}
}

func TestFlushReusesBucketRegionSpace(t *testing.T) {
	// The bucket region is freed and reallocated every batch: total free
	// space must not leak across many batches.
	ix, _ := New(simConfig())
	var frees []int64
	for i := 0; i < 8; i++ {
		if _, err := ix.ApplyUpdate([]WordUpdate{{Word: postings.WordID(i), Count: 1}}); err != nil {
			t.Fatal(err)
		}
		frees = append(frees, ix.Array().FreeBlocks())
	}
	if frees[7] != frees[2] {
		t.Errorf("free space leak across batches: %v", frees)
	}
}

func TestGetListRequiresStore(t *testing.T) {
	ix, _ := New(simConfig())
	if _, err := ix.GetList(1); err == nil {
		t.Fatal("GetList without store accepted")
	}
	if err := ix.Sweep(); err != nil {
		t.Fatal("Sweep with no deletions should be a no-op even without store")
	}
	ix.Delete(1)
	if err := ix.Sweep(); err == nil {
		t.Fatal("Sweep of deletions without store accepted")
	}
}

func TestStoreModeEndToEndQueries(t *testing.T) {
	ix, err := New(storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Reference: a plain in-memory map of word → docs.
	ref := map[postings.WordID][]postings.DocID{}
	r := rand.New(rand.NewSource(11))
	nextDoc := postings.DocID(0)
	for batch := 0; batch < 6; batch++ {
		perWord := map[postings.WordID][]postings.DocID{}
		for d := 0; d < 40; d++ {
			nextDoc++
			for i := 0; i < 10; i++ {
				w := postings.WordID(r.Intn(60))
				ds := perWord[w]
				if len(ds) > 0 && ds[len(ds)-1] == nextDoc {
					continue
				}
				perWord[w] = append(ds, nextDoc)
			}
		}
		var updates []WordUpdate
		for w, ds := range perWord {
			updates = append(updates, WordUpdate{Word: w, Count: len(ds), List: postings.FromDocs(ds)})
			ref[w] = append(ref[w], ds...)
		}
		if _, err := ix.ApplyUpdate(updates); err != nil {
			t.Fatal(err)
		}
	}
	for w, docs := range ref {
		got, err := ix.GetList(w)
		if err != nil {
			t.Fatal(err)
		}
		want := postings.FromDocs(docs)
		if !slices.Equal(got.Docs(), want.Docs()) {
			t.Fatalf("word %d: got %d postings, want %d (source %v)", w, got.Len(), want.Len(), ix.Lookup(w))
		}
	}
	// An unseen word yields an empty list.
	got, err := ix.GetList(9999)
	if err != nil || got.Len() != 0 {
		t.Fatalf("unseen word: %v, %v", got, err)
	}
}

func TestDeleteFiltersAndSweepReclaims(t *testing.T) {
	ix, err := New(storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ApplyUpdate([]WordUpdate{
		upd(1, 10, 20, 30),
		upd(2, 20, 40),
	}); err != nil {
		t.Fatal(err)
	}
	// Promote word 3 to a long list with many postings, including doc 20.
	big := make([]postings.DocID, 0, 300)
	big = append(big, 20)
	for d := postings.DocID(100); d < 399; d++ {
		big = append(big, d)
	}
	if _, err := ix.ApplyUpdate([]WordUpdate{upd(3, big...)}); err != nil {
		t.Fatal(err)
	}
	if ix.Lookup(3) != SourceLong {
		t.Fatalf("word 3 not promoted: %v", ix.Lookup(3))
	}

	ix.Delete(20)
	if !ix.IsDeleted(20) || ix.DeletedCount() != 1 {
		t.Fatal("Delete not recorded")
	}
	for _, w := range []postings.WordID{1, 2, 3} {
		l, err := ix.GetList(w)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(l.Docs(), 20) {
			t.Errorf("deleted doc 20 visible in word %d", w)
		}
	}
	// Physical length is unchanged until the sweep.
	if listLen(ix, 1) != 3 {
		t.Errorf("pre-sweep ListLen(1) = %d", listLen(ix, 1))
	}
	if err := ix.Sweep(); err != nil {
		t.Fatal(err)
	}
	if ix.DeletedCount() != 0 {
		t.Error("sweep kept the deleted list")
	}
	if listLen(ix, 1) != 2 || listLen(ix, 2) != 1 || listLen(ix, 3) != 299 {
		t.Errorf("post-sweep lens: %d %d %d", listLen(ix, 1), listLen(ix, 2), listLen(ix, 3))
	}
	l, _ := ix.GetList(3)
	if slices.Contains(l.Docs(), 20) || l.Len() != 299 {
		t.Errorf("post-sweep word 3 list wrong: len=%d", l.Len())
	}
}

func TestRestartEqualsUninterrupted(t *testing.T) {
	// Build 6 batches straight through; separately build 3 batches, reopen
	// from the store, apply the remaining 3; all queries must agree.
	cfgA := storeConfig()
	cfgB := storeConfig()

	gen := func() [][]WordUpdate {
		r := rand.New(rand.NewSource(21))
		var batches [][]WordUpdate
		nextDoc := postings.DocID(0)
		for b := 0; b < 6; b++ {
			perWord := map[postings.WordID][]postings.DocID{}
			for d := 0; d < 30; d++ {
				nextDoc++
				for i := 0; i < 12; i++ {
					w := postings.WordID(r.Intn(40))
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
			}
			batches = append(batches, ups)
		}
		return batches
	}
	batchesA, batchesB := gen(), gen()

	full, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batchesA {
		if _, err := full.ApplyUpdate(b); err != nil {
			t.Fatal(err)
		}
	}

	half, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batchesB[:3] {
		if _, err := half.ApplyUpdate(b); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash: drop the index object, reopen from the store.
	reopened, err := Open(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Batches() != 3 {
		t.Fatalf("reopened at batch %d, want 3", reopened.Batches())
	}
	for _, b := range batchesB[3:] {
		if _, err := reopened.ApplyUpdate(b); err != nil {
			t.Fatal(err)
		}
	}

	for w := postings.WordID(0); w < 40; w++ {
		a, err := full.GetList(w)
		if err != nil {
			t.Fatal(err)
		}
		b, err := reopened.GetList(w)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.Docs(), b.Docs()) {
			t.Fatalf("word %d differs after restart: %d vs %d postings (sources %v/%v)",
				w, a.Len(), b.Len(), full.Lookup(w), reopened.Lookup(w))
		}
	}
	// Aggregates agree too.
	if full.Directory().NumWords() != reopened.Directory().NumWords() {
		t.Errorf("long words: %d vs %d", full.Directory().NumWords(), reopened.Directory().NumWords())
	}
	if full.Buckets().TotalWords() != reopened.Buckets().TotalWords() {
		t.Errorf("bucket words: %d vs %d", full.Buckets().TotalWords(), reopened.Buckets().TotalWords())
	}
}

func TestOpenRejectsEmptyStore(t *testing.T) {
	cfg := storeConfig()
	if _, err := Open(cfg); err == nil {
		t.Fatal("Open of empty store succeeded")
	}
	cfg.Store = nil
	if _, err := Open(cfg); err == nil {
		t.Fatal("Open without store succeeded")
	}
}

func TestRestartPreservesDeletions(t *testing.T) {
	cfg := storeConfig()
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ApplyUpdate([]WordUpdate{upd(1, 5, 6, 7)}); err != nil {
		t.Fatal(err)
	}
	ix.Delete(6)
	// Deletions are persisted at the next flush.
	if _, err := ix.ApplyUpdate([]WordUpdate{upd(2, 8)}); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !re.IsDeleted(6) {
		t.Fatal("deletion lost across restart")
	}
	l, err := re.GetList(1)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(l.Docs(), 6) || l.Len() != 2 {
		t.Fatalf("filtered list wrong after restart: %v", l.Docs())
	}
}

func TestApplyBatchFromCorpus(t *testing.T) {
	cfg := corpus.DefaultConfig()
	cfg.Days = 3
	cfg.DocsPerDay = 30
	cfg.WordsPerDoc = 20
	cfg.VocabSize = 5000
	cfg.CoreVocab = 200
	batches, err := corpus.GenerateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, b := range batches {
		st, err := ix.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Postings
	}
	if total == 0 {
		t.Fatal("no postings applied")
	}
	// Spot-check: a frequent core word's list matches the corpus.
	w := corpus.WordID(0)
	var docs []postings.DocID
	for _, b := range batches {
		for _, d := range b.Docs {
			if _, ok := slices.BinarySearch(d.Words, w); ok {
				docs = append(docs, d.ID)
			}
		}
	}
	got, err := ix.GetList(w)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Docs(), postings.FromDocs(docs).Docs()) {
		t.Fatalf("word %d: %d postings, want %d", w, got.Len(), len(docs))
	}
}

func TestBucketStageConservesPostings(t *testing.T) {
	// Every posting of the corpus either reaches a long list through the
	// bucket stage's callback or is still resident in a bucket.
	cfg := corpus.DefaultConfig()
	cfg.Days = 6
	cfg.DocsPerDay = 60
	cfg.WordsPerDoc = 25
	cfg.VocabSize = 10_000
	cfg.CoreVocab = 300
	cfg.TinyUpdateDay = -1
	batches, err := corpus.GenerateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set, err := bucket.NewSet(bucket.Config{NumBuckets: 64, BucketSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	isLong := map[postings.WordID]bool{}
	var corpusPostings, longPostings int64
	for _, b := range batches {
		for _, d := range b.Docs {
			corpusPostings += int64(len(d.Words))
		}
		st, err := BucketStage(set, UpdatesFromBatch(b, false),
			func(w postings.WordID) bool { return isLong[w] },
			func(u WordUpdate) error {
				isLong[u.Word] = true
				longPostings += int64(u.Count)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if st.NewWords+st.BucketWords+st.LongWords != st.Words {
			t.Fatalf("day %d: categories %d+%d+%d != %d words", b.Day, st.NewWords, st.BucketWords, st.LongWords, st.Words)
		}
	}
	if longPostings == 0 {
		t.Fatal("no long-list updates")
	}
	bucketPostings := int64(set.TotalLoad() - set.TotalWords())
	if bucketPostings == 0 {
		t.Fatal("no postings left in the buckets")
	}
	if longPostings+bucketPostings != corpusPostings {
		t.Fatalf("postings not conserved: long %d + bucket %d != corpus %d",
			longPostings, bucketPostings, corpusPostings)
	}
}

func TestUpdateStatsFractions(t *testing.T) {
	if nf, bf, lf := (UpdateStats{}).Fractions(); nf != 0 || bf != 0 || lf != 0 {
		t.Errorf("empty stats fractions %v %v %v, want zeros", nf, bf, lf)
	}
	st := UpdateStats{Words: 4, NewWords: 1, BucketWords: 2, LongWords: 1}
	if nf, bf, lf := st.Fractions(); nf != 0.25 || bf != 0.5 || lf != 0.25 {
		t.Errorf("fractions %v %v %v, want 0.25 0.5 0.25", nf, bf, lf)
	}
}

func TestUpdatesFromBatchModes(t *testing.T) {
	cfg := corpus.DefaultConfig()
	cfg.Days = 1
	cfg.DocsPerDay = 10
	cfg.WordsPerDoc = 8
	cfg.VocabSize = 500
	cfg.CoreVocab = 50
	batches, _ := corpus.GenerateAll(cfg)
	plain := UpdatesFromBatch(batches[0], false)
	rich := UpdatesFromBatch(batches[0], true)
	if len(plain) != len(rich) {
		t.Fatalf("mode lengths differ: %d vs %d", len(plain), len(rich))
	}
	for i := range plain {
		if plain[i].Word != rich[i].Word || plain[i].Count != rich[i].Count {
			t.Fatalf("entry %d differs", i)
		}
		if plain[i].List != nil {
			t.Error("plain mode carried a list")
		}
		if rich[i].List == nil || rich[i].List.Len() != rich[i].Count {
			t.Errorf("rich mode list wrong for word %d", rich[i].Word)
		}
	}
}

func TestSweepUnderEveryPolicy(t *testing.T) {
	for _, p := range append(longlist.FigurePolicies(), longlist.QueryOptimized(), longlist.FillRecommended()) {
		t.Run(p.String(), func(t *testing.T) {
			cfg := storeConfig()
			cfg.Policy = p
			ix, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Build a long list and a short list that both contain doc 50.
			big := make([]postings.DocID, 0, 300)
			for d := postings.DocID(1); d <= 300; d++ {
				big = append(big, d)
			}
			if _, err := ix.ApplyUpdate([]WordUpdate{
				{Word: 1, Count: len(big), List: postings.FromDocs(big)},
				upd(2, 49, 50, 51),
			}); err != nil {
				t.Fatal(err)
			}
			ix.Delete(50)
			if err := ix.Sweep(); err != nil {
				t.Fatal(err)
			}
			for _, w := range []postings.WordID{1, 2} {
				l, err := ix.GetList(w)
				if err != nil {
					t.Fatal(err)
				}
				if slices.Contains(l.Docs(), 50) {
					t.Errorf("word %d still contains swept doc", w)
				}
			}
			if listLen(ix, 1) != 299 || listLen(ix, 2) != 2 {
				t.Errorf("post-sweep lens %d/%d", listLen(ix, 1), listLen(ix, 2))
			}
			if err := ix.CheckConsistency(); err != nil {
				t.Errorf("post-sweep fsck: %v", err)
			}
		})
	}
}

func TestGetListMergesDeletedAndPromotion(t *testing.T) {
	ix, err := New(storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ApplyUpdate([]WordUpdate{upd(7, 1, 2, 3)}); err != nil {
		t.Fatal(err)
	}
	ix.Delete(2)
	// Grow the word into a long list while a deletion is outstanding.
	big := make([]postings.DocID, 0, 300)
	for d := postings.DocID(10); d < 310; d++ {
		big = append(big, d)
	}
	if _, err := ix.ApplyUpdate([]WordUpdate{{Word: 7, Count: len(big), List: postings.FromDocs(big)}}); err != nil {
		t.Fatal(err)
	}
	if ix.Lookup(7) != SourceLong {
		t.Skip("word did not promote at this scale")
	}
	l, err := ix.GetList(7)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(l.Docs(), 2) {
		t.Error("deleted doc visible after promotion")
	}
	if l.Len() != 302 {
		t.Errorf("len = %d, want 302", l.Len())
	}
}

// listLen is the number of postings indexed for w, postings of deleted
// documents not yet swept included.
func listLen(ix *Index, w postings.WordID) int64 {
	switch ix.Lookup(w) {
	case SourceLong:
		return ix.dir.Postings(w)
	case SourceBucket:
		var n int64
		ix.buckets.ForEachWord(func(v postings.WordID, count int) {
			if v == w {
				n = int64(count)
			}
		})
		return n
	}
	return 0
}
