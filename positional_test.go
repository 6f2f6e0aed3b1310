package dualindex

import (
	"runtime/debug"
	"strings"
	"testing"

	"dualindex/internal/query"
)

func positionalEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	eng, err := Open(Options{Dir: dir, KeepDocuments: true, Buckets: 8, BucketSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestPositionalQueriesRequireDocStore(t *testing.T) {
	eng, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.AddDocument("some words")
	if _, err := eng.SearchPhrase("some words"); err == nil {
		t.Error("phrase query without doc store accepted")
	}
	if _, err := eng.SearchBoolean("some near/3 words"); err == nil {
		t.Error("proximity query without doc store accepted")
	}
	if _, err := eng.SearchBoolean("title:some"); err == nil {
		t.Error("region query without doc store accepted")
	}
	if _, _, err := eng.Document(1); err == nil {
		t.Error("Document without doc store accepted")
	}
}

func TestSearchPhrase(t *testing.T) {
	eng := positionalEngine(t, "")
	defer eng.Close()
	d1 := eng.AddDocument("the quick brown fox jumps")
	d2 := eng.AddDocument("the brown quick fox sits") // words present, order wrong
	d3 := eng.AddDocument("quick brown things exist")
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	docs, err := eng.SearchPhrase("quick brown")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 || docs[0] != d1 || docs[1] != d3 {
		t.Fatalf("phrase = %v", docs)
	}
	docs, err = eng.SearchPhrase("quick brown fox")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0] != d1 {
		t.Fatalf("longer phrase = %v", docs)
	}
	if docs, _ := eng.SearchPhrase("fox quick"); len(docs) != 0 {
		t.Fatalf("reversed phrase matched %v", docs)
	}
	if _, err := eng.SearchPhrase("   "); err == nil {
		t.Error("empty phrase accepted")
	}
	_ = d2
}

func TestSearchPhraseSeesPendingDocs(t *testing.T) {
	eng := positionalEngine(t, "")
	defer eng.Close()
	d := eng.AddDocument("fresh exact sequence here")
	docs, err := eng.SearchPhrase("exact sequence")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0] != d {
		t.Fatalf("pending phrase = %v", docs)
	}
}

func TestSearchNear(t *testing.T) {
	eng := positionalEngine(t, "")
	defer eng.Close()
	d1 := eng.AddDocument("cat sat near the dog")     // distance 4
	d2 := eng.AddDocument("cat dog")                  // distance 1
	d3 := eng.AddDocument("dog barks at the old cat") // distance 5, reversed
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	docs, err := eng.SearchBoolean("cat near/1 dog")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0] != d2 {
		t.Fatalf("near 1 = %v", docs)
	}
	docs, err = eng.SearchBoolean("cat near/5 dog")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 {
		t.Fatalf("near 5 = %v (want all of %v %v %v)", docs, d1, d2, d3)
	}
	// Same word twice: needs two occurrences within the window.
	d4 := eng.AddDocument("echo echo")
	eng.AddDocument("echo alone")
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	docs, err = eng.SearchBoolean("echo near/2 echo")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0] != d4 {
		t.Fatalf("self-near = %v", docs)
	}
	if _, err := eng.SearchBoolean("cat near/0 dog"); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := eng.SearchBoolean(`"two words" near/3 dog`); err == nil {
		t.Error("multi-word proximity operand accepted")
	}
}

func TestSearchInRegion(t *testing.T) {
	eng := positionalEngine(t, "")
	defer eng.Close()
	d1 := eng.AddDocument("Subject: market update\n\nnothing else")
	d2 := eng.AddDocument("Subject: weather\n\nthe market crashed today")
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	docs, err := eng.SearchBoolean("title:market")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0] != d1 {
		t.Fatalf("title region = %v", docs)
	}
	docs, err = eng.SearchBoolean("body:market")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0] != d2 {
		t.Fatalf("body region = %v", docs)
	}
	if _, err := eng.SearchBoolean("footnote:market"); err == nil {
		t.Error("unknown region accepted")
	}
}

func TestDocumentRetrieval(t *testing.T) {
	eng := positionalEngine(t, "")
	defer eng.Close()
	text := "retrievable document text"
	d := eng.AddDocument(text)
	got, ok, err := eng.Document(d)
	if err != nil || !ok || got != text {
		t.Fatalf("Document = %q, %v, %v", got, ok, err)
	}
	if _, ok, _ := eng.Document(999); ok {
		t.Error("unknown document found")
	}
	eng.Delete(d)
	if _, ok, _ := eng.Document(d); ok {
		t.Error("deleted document still retrievable")
	}
}

func TestDocStorePersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	eng := positionalEngine(t, dir)
	d := eng.AddDocument("Subject: durable title\n\ndurable body words")
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	re := positionalEngine(t, dir)
	defer re.Close()
	text, ok, err := re.Document(d)
	if err != nil || !ok || !strings.Contains(text, "durable body") {
		t.Fatalf("reopened Document = %q, %v, %v", text, ok, err)
	}
	docs, err := re.SearchPhrase("durable body words")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0] != d {
		t.Fatalf("reopened phrase = %v", docs)
	}
	docs, err = re.SearchBoolean("title:durable")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("reopened region = %v", docs)
	}
}

func TestSweepCompactsDocStore(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		eng := positionalEngine(t, dir)
		d1 := eng.AddDocument("keep this document")
		d2 := eng.AddDocument("drop this document")
		if _, err := eng.FlushBatch(); err != nil {
			t.Fatal(err)
		}
		eng.Delete(d2)
		if err := eng.Sweep(); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := eng.Document(d2); ok {
			t.Error("swept document still in the store")
		}
		if text, ok, _ := eng.Document(d1); !ok || !strings.Contains(text, "keep") {
			t.Error("surviving document damaged by compaction")
		}
		// The store keeps answering phrase queries after compaction.
		docs, err := eng.SearchPhrase("keep this")
		if err != nil {
			t.Fatal(err)
		}
		if len(docs) != 1 || docs[0] != d1 {
			t.Fatalf("post-compaction phrase = %v", docs)
		}
		eng.Close()
	}
}

func TestCrashRecoversPendingDocuments(t *testing.T) {
	dir := t.TempDir()
	eng := positionalEngine(t, dir)
	d1 := eng.AddDocument("checkpointed content")
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	// Two documents added after the checkpoint; then a "crash" (Close
	// persists them in docs.log but the index never flushed the batch).
	d2 := eng.AddDocument("unflushed article alpha")
	d3 := eng.AddDocument("unflushed article beta")
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re := positionalEngine(t, dir)
	defer re.Close()
	// The lost documents are back in the pending batch, searchable
	// immediately and flushable.
	if re.PendingDocs() != 2 {
		t.Fatalf("recovered pending = %d, want 2", re.PendingDocs())
	}
	docs, err := re.SearchBoolean("unflushed")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 || docs[0] != d2 || docs[1] != d3 {
		t.Fatalf("recovered search = %v", docs)
	}
	if _, err := re.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	docs, _ = re.SearchBoolean("checkpointed or unflushed")
	if len(docs) != 3 || docs[0] != d1 {
		t.Fatalf("post-recovery flush search = %v", docs)
	}
	// New ids continue beyond the recovered ones.
	if d4 := re.AddDocument("fresh"); d4 != d3+1 {
		t.Fatalf("next id %d, want %d", d4, d3+1)
	}
}

// TestVerifyDocsAllocsFlat pins candidate verification's cost shape: each
// candidate is one document-store read and one streaming pass, so verifying
// the same number of candidates allocates the same number of times whether
// the documents hold 100 tokens or 10,000. Half the candidates are pending,
// still in the docs.log write buffer on the first pass, and half flushed.
// The collector is held off while counting: a GC cycle, which the long
// documents' reads trigger, allocates runtime objects of its own that
// AllocsPerRun would charge to verification.
func TestVerifyDocsAllocsFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The phrase never occurs, so every candidate is scanned to its end.
	check := query.Check{Kind: "phrase", Ordered: []string{"beta", "alpha", "zeta"}}
	allocs := func(tokens int) float64 {
		eng := positionalEngine(t, t.TempDir())
		defer eng.Close()
		text := strings.Repeat("alpha beta gamma delta ", tokens/4)
		var ids []DocID
		for i := 0; i < 20; i++ {
			ids = append(ids, eng.AddDocument(text))
			if i == 9 {
				if _, err := eng.FlushBatch(); err != nil {
					t.Fatal(err)
				}
			}
		}
		s := eng.shards[0]
		return testing.AllocsPerRun(10, func() {
			s.mu.RLock()
			defer s.mu.RUnlock()
			if out, err := s.verifyDocs(ids, check); err != nil || len(out) != 0 {
				t.Fatalf("verifyDocs = %v, %v", out, err)
			}
		})
	}
	if short, long := allocs(100), allocs(10000); short != long {
		t.Errorf("verifying 20 candidates: %v allocs at 100 tokens, %v at 10,000", short, long)
	}
}
