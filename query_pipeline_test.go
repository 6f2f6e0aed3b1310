package dualindex

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"dualindex/internal/query"
)

// Acceptance tests for the unified query pipeline: Engine.Query runs the
// whole language (boolean structure, phrases, proximity, regions,
// truncation, ranked bags) through parse→plan→execute, under both scoring
// models, and the five legacy entry points are thin wrappers over the same
// pipeline with their original results.

// pipelineCorpus is a small hand-built corpus with known positions and
// regions (document ids are assignment order, 1-based).
var pipelineCorpus = []string{
	"Subject: white mouse\ncat dance floor", // 1: title white+mouse; body cat…
	"white cat brown mouse",                 // 2
	"mouse white",                           // 3: near, but not the phrase
	"bird dance",                            // 4
	"cattle herd",                           // 5: cat* matches cattle too
}

func pipelineEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	for _, text := range pipelineCorpus {
		eng.AddDocument(text)
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func matchDocs(ms []Match) []DocID {
	out := make([]DocID, len(ms))
	for i, m := range ms {
		out[i] = m.Doc
	}
	return out
}

func sortedDocs(ms []Match) string {
	docs := matchDocs(ms)
	for i := 1; i < len(docs); i++ {
		for j := i; j > 0 && docs[j] < docs[j-1]; j-- {
			docs[j], docs[j-1] = docs[j-1], docs[j]
		}
	}
	return fmt.Sprint(docs)
}

// TestQueryUnifiedAcceptance: one compound query mixing a phrase, boolean
// structure and truncation, evaluated under both scoring models.
func TestQueryUnifiedAcceptance(t *testing.T) {
	for _, scoring := range []string{ScoringVector, ScoringBM25} {
		t.Run(scoring, func(t *testing.T) {
			opts := smallOpts(2)
			opts.KeepDocuments = true
			opts.Scoring = scoring
			eng := pipelineEngine(t, opts)

			// "white mouse" matches only doc 1 (title-adjacent); ∧cat keeps
			// it; ∨bir* adds doc 4.
			ms, err := eng.Query(`"white mouse" and cat or bir*`, 10)
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedDocs(ms); got != "[1 4]" {
				t.Fatalf("Query = %v (docs %s), want docs [1 4]", ms, got)
			}
			for i, m := range ms {
				if m.Score <= 0 {
					t.Errorf("match %d score = %v, want > 0", i, m.Score)
				}
				if i > 0 && ms[i-1].Score < m.Score {
					t.Errorf("matches not score-descending: %v", ms)
				}
			}

			// Proximity and region leaves compose with the algebra too.
			ms, err = eng.Query("white near/2 mouse and not title:mouse", 10)
			if err != nil {
				t.Fatal(err)
			}
			// near/2 gives {1,3} (doc 2 has white@0 and mouse@3, outside the
			// window); title:mouse then removes doc 1.
			if got := sortedDocs(ms); got != "[3]" {
				t.Fatalf("near∧¬region = %v (docs %s), want docs [3]", ms, got)
			}

			// A bare word list ranks as a bag: every cat-or-dance document.
			ms, err = eng.Query("cat dance", 10)
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedDocs(ms); got != "[1 2 4]" {
				t.Fatalf("bag = %v (docs %s), want docs [1 2 4]", ms, got)
			}
			// Doc 1 holds both words and must outrank the single-word docs.
			if ms[0].Doc != 1 {
				t.Errorf("bag top doc = %d, want 1", ms[0].Doc)
			}
		})
	}
}

// TestQueryWrapperEquivalence: each legacy entry point returns exactly what
// the unified language expresses for its fragment.
func TestQueryWrapperEquivalence(t *testing.T) {
	opts := smallOpts(2)
	opts.KeepDocuments = true
	eng := pipelineEngine(t, opts)

	// Boolean: same matching documents (Query additionally ranks them).
	for _, q := range []string{"cat and mouse", "(white or bird) and not brown", "cat*"} {
		want, err := eng.SearchBoolean(q)
		if err != nil {
			t.Fatalf("SearchBoolean(%q): %v", q, err)
		}
		ms, err := eng.Query(q, 100)
		if err != nil {
			t.Fatalf("Query(%q): %v", q, err)
		}
		if got := sortedDocs(ms); got != fmt.Sprint(want) {
			t.Errorf("Query(%q) docs = %s, SearchBoolean = %v", q, got, want)
		}
	}

	// Vector: a bare term list is the same ranked bag, scores included.
	text := "white mouse dance"
	want, err := eng.SearchVector(text, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Query(text, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Query = %v, SearchVector = %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("match %d: Query %+v, SearchVector %+v", i, got[i], want[i])
		}
	}

	// Phrase, proximity, region: same document lists.
	phrase, err := eng.SearchPhrase("white mouse")
	if err != nil {
		t.Fatal(err)
	}
	if ms, _ := eng.Query(`"white mouse"`, 100); sortedDocs(ms) != fmt.Sprint(phrase) {
		t.Errorf("phrase: Query %s, SearchPhrase %v", sortedDocs(ms), phrase)
	}
	near, err := eng.SearchNear("white", "mouse", 2)
	if err != nil {
		t.Fatal(err)
	}
	if ms, _ := eng.Query("white near/2 mouse", 100); sortedDocs(ms) != fmt.Sprint(near) {
		t.Errorf("near: Query %s, SearchNear %v", sortedDocs(ms), near)
	}
	region, err := eng.SearchInRegion("mouse", "title")
	if err != nil {
		t.Fatal(err)
	}
	if ms, _ := eng.Query("title:mouse", 100); sortedDocs(ms) != fmt.Sprint(region) {
		t.Errorf("region: Query %s, SearchInRegion %v", sortedDocs(ms), region)
	}
}

// TestQueryPendingTier: the pipeline sees documents awaiting a flush, like
// every legacy entry point.
func TestQueryPendingTier(t *testing.T) {
	opts := smallOpts(2)
	opts.KeepDocuments = true
	eng := pipelineEngine(t, opts)
	pending := eng.AddDocument("Subject: pending cat\nwhite mouse dance")
	ms, err := eng.Query(`cat and title:pending`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedDocs(ms); got != fmt.Sprint([]DocID{pending}) {
		t.Fatalf("pending doc not visible: %s, want [%d]", got, pending)
	}
}

// TestScoringOption pins Options.Scoring: the default is the vector model,
// BM25 changes scores (not candidates), and junk is rejected at Open.
func TestScoringOption(t *testing.T) {
	if got := (Options{}).withDefaults().Scoring; got != ScoringVector {
		t.Errorf("default Scoring = %q, want %q", got, ScoringVector)
	}
	if _, err := Open(Options{Scoring: "pagerank"}); err == nil ||
		!strings.Contains(err.Error(), `unknown scoring "pagerank"`) {
		t.Fatalf("Open(Scoring: pagerank) err = %v", err)
	}

	vecOpts := smallOpts(1)
	vec := pipelineEngine(t, vecOpts)
	bmOpts := smallOpts(1)
	bmOpts.Scoring = ScoringBM25
	bm := pipelineEngine(t, bmOpts)

	q := "white mouse cat"
	vm, err := vec.Query(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	bmm, err := bm.Query(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sortedDocs(vm) != sortedDocs(bmm) {
		t.Fatalf("models disagree on candidates: %v vs %v", vm, bmm)
	}
	scoresDiffer := false
	for _, v := range vm {
		for _, b := range bmm {
			if v.Doc == b.Doc && v.Score != b.Score {
				scoresDiffer = true
			}
		}
	}
	if !scoresDiffer {
		t.Error("BM25 produced identical scores to the vector model")
	}
	// SearchVector honours the option too.
	sv, err := bm.SearchVector(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv) != len(bmm) {
		t.Fatalf("SearchVector under bm25 = %v, Query = %v", sv, bmm)
	}
	for i := range sv {
		if sv[i] != bmm[i] {
			t.Errorf("match %d: SearchVector %+v, Query %+v", i, sv[i], bmm[i])
		}
	}
}

// TestQueryTopKOwnsItsArray: a ranked answer is exactly its k matches — its
// capacity is its length — whether the bag arm or the structured arm ranked
// it, so holding a top-k result does not pin every scored candidate.
func TestQueryTopKOwnsItsArray(t *testing.T) {
	for _, shards := range []int{1, 2} {
		eng := pipelineEngine(t, smallOpts(shards))
		for _, q := range []string{
			"white mouse cat dance",       // pure bag: documents 1-4 score
			"(white or dance) mouse bird", // structured: documents 1-4 match
		} {
			ms, err := eng.Query(q, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) != 2 || cap(ms) != len(ms) {
				t.Errorf("shards=%d %q: len %d cap %d, want 2 and 2", shards, q, len(ms), cap(ms))
			}
		}
	}
}

// referenceRanking scores a one-shard engine's ranked query term-at-a-time:
// the documents SearchBoolean(boolean) matches, scored from the shard's own
// lists with a map accumulator over terms (already in sorted order, each
// truncation expanded through the vocabulary), then fully sorted and cut to
// k. It spells out both models' contributions independently of the
// executor.
func referenceRanking(t *testing.T, eng *Engine, scoring, boolean string, terms []string, k int) []Match {
	t.Helper()
	matched, err := eng.SearchBoolean(boolean)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(eng.collectionSize())
	s := eng.shards[0]
	s.mu.RLock()
	defer s.mu.RUnlock()
	src := s.tiers()
	scores := map[DocID]float64{}
	for _, term := range terms {
		words := []string{term}
		if p, ok := strings.CutSuffix(term, "*"); ok {
			words = src.WordsWithPrefix(p)
		}
		for _, w := range words {
			list, err := src.List(w)
			if err != nil {
				t.Fatal(err)
			}
			df := float64(list.Len())
			for _, p := range list.Postings() {
				tf := float64(p.Freq)
				if scoring == ScoringBM25 {
					idf := math.Log(1 + (n-df+0.5)/(df+0.5))
					scores[p.Doc] += idf * tf * (query.BM25K1 + 1) / (tf + query.BM25K1)
				} else {
					scores[p.Doc] += float64((1 + math.Log(tf)) * math.Log(1+n/df))
				}
			}
		}
	}
	want := make([]Match, len(matched))
	for i, d := range matched {
		want[i] = Match{Doc: d, Score: scores[d]}
	}
	slices.SortFunc(want, func(a, b Match) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return int(a.Doc) - int(b.Doc)
	})
	return want[:min(k, len(want))]
}

// TestQueryRankedMatchesReference: on one shard, where document frequencies
// are global, Engine.Query's structured ranked answers — an intersection,
// and a plain term overlapping a truncation that expands to it — equal the
// term-at-a-time reference exactly under both scorings: same documents,
// same order, == scores.
func TestQueryRankedMatchesReference(t *testing.T) {
	texts := []string{
		"cat dog", "cat cattle herd", "dog", "cat dog catalog",
		"bird", "cattle dog cat", "catalog", "dog cat bird",
	}
	cases := []struct {
		q, boolean string
		terms      []string // the scoring terms, sorted
	}{
		{"cat and dog", "cat and dog", []string{"cat", "dog"}},
		{"cat ca*", "cat or ca*", []string{"ca*", "cat"}},
	}
	for _, scoring := range []string{ScoringVector, ScoringBM25} {
		opts := smallOpts(1)
		opts.Scoring = scoring
		eng, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		for _, text := range texts {
			eng.AddDocument(text)
		}
		if _, err := eng.FlushBatch(); err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			for _, k := range []int{1, 3, 100} {
				got, err := eng.Query(tc.q, k)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceRanking(t, eng, scoring, tc.boolean, tc.terms, k)
				if len(want) == 0 || !slices.Equal(got, want) {
					t.Errorf("%s %q k=%d:\n got %v\nwant %v", scoring, tc.q, k, got, want)
				}
			}
		}
	}
}

// TestCollectionSize: the idf numerator comes from the per-shard high-water
// marks and equals the id allocator's count, flushed or pending.
func TestCollectionSize(t *testing.T) {
	opts := smallOpts(4)
	eng := pipelineEngine(t, opts)
	if got, want := eng.collectionSize(), int(eng.nextDoc); got != want {
		t.Fatalf("collectionSize = %d, nextDoc = %d", got, want)
	}
	eng.AddDocument("one more pending document")
	if got, want := eng.collectionSize(), int(eng.nextDoc); got != want {
		t.Fatalf("after pending add: collectionSize = %d, nextDoc = %d", got, want)
	}
}

// TestQueryErrors pins the unified entry point's failure modes.
func TestQueryErrors(t *testing.T) {
	opts := smallOpts(1) // no KeepDocuments
	eng := pipelineEngine(t, opts)
	cases := []struct{ q, wantSub string }{
		{"", "empty query"},
		{"not cat", "complement"},
		{"cat and", "unexpected end of query"},
		{`"white mouse"`, "KeepDocuments"},
	}
	for _, tt := range cases {
		_, err := eng.Query(tt.q, 10)
		if err == nil || !strings.Contains(err.Error(), tt.wantSub) {
			t.Errorf("Query(%q) err = %v, want substring %q", tt.q, err, tt.wantSub)
		}
	}
}
