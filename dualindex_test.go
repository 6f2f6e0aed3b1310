package dualindex

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	eng, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d1 := eng.AddDocument("the quick brown fox jumps over the lazy dog")
	d2 := eng.AddDocument("the lazy cat sleeps")
	d3 := eng.AddDocument("quick cats and quick dogs")
	if eng.PendingDocs() != 3 {
		t.Fatalf("pending = %d", eng.PendingDocs())
	}
	// Pending documents are searchable before the flush (the paper: the
	// batch "can be searched simultaneously with the larger index").
	docs, err := eng.SearchBoolean("quick")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 || docs[0] != d1 || docs[1] != d3 {
		t.Fatalf("pre-flush search = %v", docs)
	}
	st, err := eng.FlushBatch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Docs != 3 || st.Postings == 0 {
		t.Fatalf("batch stats %+v", st)
	}
	if eng.PendingDocs() != 0 {
		t.Fatal("flush left pending docs")
	}
	docs, err = eng.SearchBoolean("lazy and not cat")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0] != d1 {
		t.Fatalf("post-flush search = %v", docs)
	}
	if _, err := eng.SearchBoolean("((("); err == nil {
		t.Fatal("bad query accepted")
	}
	if docs, err := eng.SearchBoolean("zebra"); err != nil || len(docs) != 0 {
		t.Fatalf("unknown word: %v %v", docs, err)
	}
	_ = d2
}

func TestFlushBatchEmptyNoOp(t *testing.T) {
	eng, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st, err := eng.FlushBatch()
	if err != nil || st.Docs != 0 {
		t.Fatalf("empty flush: %+v, %v", st, err)
	}
	if eng.Stats().Batches != 0 {
		t.Fatal("empty flush counted a batch")
	}
}

func TestSearchVectorRanking(t *testing.T) {
	eng, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	best := eng.AddDocument("database systems store inverted lists on disk")
	mid := eng.AddDocument("inverted lists index documents")
	eng.AddDocument("completely unrelated text about cooking")
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	matches, err := eng.SearchVector("inverted lists for database disk storage", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("matches = %v", matches)
	}
	if matches[0].Doc != best || matches[1].Doc != mid {
		t.Fatalf("ranking wrong: %v", matches)
	}
}

func TestDeleteAndSweep(t *testing.T) {
	eng, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d1 := eng.AddDocument("shared word alpha")
	d2 := eng.AddDocument("shared word beta")
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	eng.Delete(d1)
	docs, err := eng.SearchBoolean("shared")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0] != d2 {
		t.Fatalf("post-delete search = %v", docs)
	}
	if eng.Stats().Deleted != 1 {
		t.Fatal("deleted count wrong")
	}
	if err := eng.Sweep(); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Deleted != 0 {
		t.Fatal("sweep left deletions")
	}
	docs, _ = eng.SearchBoolean("shared")
	if len(docs) != 1 || docs[0] != d2 {
		t.Fatalf("post-sweep search = %v", docs)
	}
}

func TestDeleteVisibleInPendingBatch(t *testing.T) {
	eng, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d := eng.AddDocument("ephemeral words")
	eng.Delete(d)
	docs, err := eng.SearchBoolean("ephemeral")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 0 {
		t.Fatalf("deleted pending doc visible: %v", docs)
	}
}

func TestPolicyConversions(t *testing.T) {
	for _, p := range []Policy{PolicyFastUpdate, PolicyBalanced, PolicyFastQuery, PolicyExtents} {
		if _, err := p.internal(); err != nil {
			t.Errorf("policy %+v rejected: %v", p, err)
		}
	}
	for _, p := range []Policy{
		{Style: "nope"},
		{Style: "new", InPlace: true, Alloc: "nope"},
		{Style: "new", InPlace: true, Alloc: "proportional", K: 0.2},
	} {
		if _, err := p.internal(); err == nil {
			t.Errorf("bad policy %+v accepted", p)
		}
	}
}

func TestAllPoliciesAnswerIdentically(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	vocabulary := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	var docs []string
	for i := 0; i < 120; i++ {
		var b strings.Builder
		for j := 0; j < 5; j++ {
			b.WriteString(vocabulary[r.Intn(len(vocabulary))])
			b.WriteString(" ")
		}
		docs = append(docs, b.String())
	}
	queries := []string{"alpha", "alpha and beta", "(gamma or delta) and not epsilon", "zeta or eta"}
	var reference [][]DocID
	for _, pol := range []Policy{PolicyFastUpdate, PolicyBalanced, PolicyFastQuery, PolicyExtents} {
		p := pol
		eng, err := Open(Options{Policy: &p, Buckets: 8, BucketSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range docs {
			eng.AddDocument(d)
			if i%25 == 24 {
				if _, err := eng.FlushBatch(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := eng.FlushBatch(); err != nil {
			t.Fatal(err)
		}
		var got [][]DocID
		for _, q := range queries {
			ds, err := eng.SearchBoolean(q)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, ds)
		}
		eng.Close()
		if reference == nil {
			reference = got
			continue
		}
		for qi := range queries {
			if fmt.Sprint(got[qi]) != fmt.Sprint(reference[qi]) {
				t.Errorf("policy %+v query %q: %v != %v", pol, queries[qi], got[qi], reference[qi])
			}
		}
	}
}

func TestPersistenceAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Buckets: 8, BucketSize: 64}
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	d1 := eng.AddDocument("persistent storage rocks")
	eng.AddDocument("volatile memory fades")
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	docs, err := re.SearchBoolean("persistent and storage")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0] != d1 {
		t.Fatalf("reopened search = %v", docs)
	}
	// New documents continue the identifier sequence.
	d3 := re.AddDocument("another persistent doc")
	if d3 <= 2 {
		t.Fatalf("doc id %d did not continue after 2", d3)
	}
	if _, err := re.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	docs, _ = re.SearchBoolean("persistent")
	if len(docs) != 2 {
		t.Fatalf("post-resume search = %v", docs)
	}
}

func TestStatsAndReadCost(t *testing.T) {
	eng, err := Open(Options{Buckets: 4, BucketSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Make one word frequent enough to overflow its bucket.
	for i := 0; i < 50; i++ {
		eng.AddDocument(fmt.Sprintf("hammer word%d", i))
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Docs != 50 || st.Batches != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.LongLists == 0 {
		t.Fatal("no long lists despite bucket overflow")
	}
	if st.WriteOps == 0 {
		t.Fatal("no write ops recorded")
	}
	if eng.ReadCost("hammer") == 0 {
		t.Error("frequent word has zero read cost")
	}
	if eng.ReadCost("word1") != 0 {
		t.Error("bucket word should cost 0 reads")
	}
	if eng.ReadCost("absent") != 0 {
		t.Error("absent word should cost 0 reads")
	}
}

func TestConcurrentSearchDuringUpdates(t *testing.T) {
	// The paper's operational premise: 7x24 service, queries flowing while
	// the index is updated in place. Run concurrent readers against a
	// writer applying batches; every search must see a consistent index.
	eng, err := Open(Options{Buckets: 16, BucketSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Seed one batch so queries have something to find.
	eng.AddDocument("anchor term stays forever")
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				docs, err := eng.SearchBoolean("anchor and term")
				if err != nil {
					errs <- err
					return
				}
				if len(docs) == 0 {
					errs <- fmt.Errorf("anchor document vanished")
					return
				}
				if _, err := eng.SearchVector("anchor stays", 5); err != nil {
					errs <- err
					return
				}
				_ = eng.Stats()
			}
		}()
	}
	for batch := 0; batch < 20; batch++ {
		for d := 0; d < 20; d++ {
			eng.AddDocument(fmt.Sprintf("filler batch%d doc%d common words here", batch, d))
		}
		if _, err := eng.FlushBatch(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	docs, err := eng.SearchBoolean("common")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 400 {
		t.Fatalf("final common docs = %d, want 400", len(docs))
	}
}

func TestTruncationQueries(t *testing.T) {
	eng, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d1 := eng.AddDocument("inverted lists support incremental updates")
	d2 := eng.AddDocument("index inversion on disk")
	d3 := eng.AddDocument("nothing relevant here")
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	docs, err := eng.SearchBoolean("inver*")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 || docs[0] != d1 || docs[1] != d2 {
		t.Fatalf("inver* = %v", docs)
	}
	docs, err = eng.SearchBoolean("in* and not index")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0] != d1 {
		t.Fatalf("in* and not index = %v", docs)
	}
	if docs, err := eng.SearchBoolean("zzz*"); err != nil || len(docs) != 0 {
		t.Fatalf("zzz* = %v, %v", docs, err)
	}
	_ = d3
}

func TestRebalanceViaEngine(t *testing.T) {
	eng, err := Open(Options{Buckets: 8, BucketSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 100; i++ {
		eng.AddDocument(fmt.Sprintf("common filler doc%d words", i))
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	lf := eng.BucketLoadFactor()
	if lf <= 0 {
		t.Fatal("zero load factor")
	}
	docsBefore, err := eng.SearchBoolean("common and filler")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RebalanceBuckets(32, 256); err != nil {
		t.Fatal(err)
	}
	if eng.BucketLoadFactor() >= lf {
		t.Errorf("load factor did not drop: %v → %v", lf, eng.BucketLoadFactor())
	}
	docsAfter, err := eng.SearchBoolean("common and filler")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(docsBefore) != fmt.Sprint(docsAfter) {
		t.Fatal("rebalance changed query answers")
	}
}

func TestOptionsBadPolicyRejected(t *testing.T) {
	p := Policy{Style: "bogus"}
	if _, err := Open(Options{Policy: &p}); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestVocabCorruptionDetectedOnOpen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Buckets: 8, BucketSize: 64}
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.AddDocument("some persistent words")
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// As many words as the checkpoint counts, but one twice.
	if err := os.WriteFile(filepath.Join(dir, "vocab.txt"), []byte("some\nsome\nwords\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); err == nil {
		t.Fatal("corrupt vocabulary accepted")
	}
}

func TestPendingVisibleAcrossStructures(t *testing.T) {
	// A word already long on disk must merge with pending postings for it.
	eng, err := Open(Options{Buckets: 4, BucketSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 40; i++ {
		eng.AddDocument(fmt.Sprintf("hot filler%d", i))
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if eng.ReadCost("hot") == 0 {
		t.Skip("word did not go long at this scale")
	}
	before, err := eng.SearchBoolean("hot")
	if err != nil {
		t.Fatal(err)
	}
	d := eng.AddDocument("hot pending addition")
	after, err := eng.SearchBoolean("hot")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+1 || after[len(after)-1] != d {
		t.Fatalf("pending posting not merged: %d → %d", len(before), len(after))
	}
}

func TestStatsBucketLoadAndDocs(t *testing.T) {
	eng, err := Open(Options{KeepDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d := eng.AddDocument("alpha beta gamma")
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if eng.BucketLoadFactor() <= 0 {
		t.Error("zero load factor after indexing")
	}
	text, ok, err := eng.Document(d)
	if err != nil || !ok || text != "alpha beta gamma" {
		t.Fatalf("Document = %q %v %v", text, ok, err)
	}
}

func TestEngineCheckConsistency(t *testing.T) {
	eng, err := Open(Options{Buckets: 8, BucketSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 60; i++ {
		eng.AddDocument(fmt.Sprintf("consistency probe %d shared", i))
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if err := eng.CheckConsistency(); err != nil {
		t.Fatalf("consistent engine failed fsck: %v", err)
	}
}

// requireClosed calls every public operation of a closed engine and checks
// that it refuses or reports nothing: no identifier is handed out, every
// query, flush and maintenance call returns errClosed, the counters read
// zero, Health is neither healthy nor ready, and Close returns nil.
func requireClosed(t *testing.T, eng *Engine) {
	t.Helper()
	if err := eng.Close(); err != nil {
		t.Errorf("Close on a closed engine: %v", err)
	}
	if h := eng.Health(); h.Healthy || h.Ready {
		t.Errorf("Health = %+v, want neither healthy nor ready", h)
	}
	if id := eng.AddDocument("waa"); id != 0 {
		t.Errorf("AddDocument = %d, want 0", id)
	}
	eng.Delete(1)
	_, err := eng.FlushBatch()
	errs := map[string]error{"FlushBatch": err}
	_, errs["SearchBoolean"] = eng.SearchBoolean("waa")
	_, errs["Query"] = eng.Query("waa", 10)
	_, errs["SearchVector"] = eng.SearchVector("waa", 10)
	_, errs["SearchPhrase"] = eng.SearchPhrase("waa wab")
	_, _, errs["Document"] = eng.Document(1)
	_, errs["Reshard"] = eng.Reshard(3)
	errs["Sweep"] = eng.Sweep()
	errs["RebalanceBuckets"] = eng.RebalanceBuckets(16, 128)
	errs["CheckConsistency"] = eng.CheckConsistency()
	for op, err := range errs {
		if !errors.Is(err, errClosed) {
			t.Errorf("%s: err = %v, want %v", op, err, errClosed)
		}
	}
	if n := eng.PendingDocs(); n != 0 {
		t.Errorf("PendingDocs = %d, want 0", n)
	}
	if st := eng.Stats(); st.Words != 0 || st.DocsIndexed != 0 {
		t.Errorf("Stats = %+v, want no words or indexed documents", st)
	}
	if n := len(eng.ShardStats()); n != 0 {
		t.Errorf("ShardStats has %d entries, want 0", n)
	}
	if lf := eng.BucketLoadFactor(); lf != 0 {
		t.Errorf("BucketLoadFactor = %v, want 0", lf)
	}
	if n := eng.ReadCost("waa"); n != 0 {
		t.Errorf("ReadCost = %d, want 0", n)
	}
}

// TestClosedEngineRefuses: after Close, a file index hands out no
// identifiers and answers every operation as closed, instead of writing to
// or reading from the files it closed.
func TestClosedEngineRefuses(t *testing.T) {
	eng, err := Open(reshardOpts(t.TempDir(), 1))
	if err != nil {
		t.Fatal(err)
	}
	buildCorpus(t, eng, []string{"waa wab", "wab wac", "waa wac"})
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	requireClosed(t, eng)
}
