package dualindex

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dualindex/internal/docstore"
	"dualindex/internal/lexer"
	"dualindex/internal/postings"
	"dualindex/internal/query"
)

// verifyWords is a small vocabulary, so nearly every document holds every
// word and a positional query's candidates run to many verification chunks
// per shard, of which verification keeps only some.
var verifyWords = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}

// verifyTexts generates n documents, each a "Subject:" title line of two
// words (the title region) over a body of eight.
func verifyTexts(seed int64, n int) []string {
	r := rand.New(rand.NewSource(seed))
	word := func() string { return verifyWords[r.Intn(len(verifyWords))] }
	texts := make([]string, n)
	for i := range texts {
		var sb strings.Builder
		fmt.Fprintf(&sb, "Subject: %s %s\n", word(), word())
		for j := 0; j < 8; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(word())
		}
		texts[i] = sb.String()
	}
	return texts
}

// TestParallelVerifyMatchesSerial: phrase, proximity and region answers over
// flushed, pending and deleted documents equal a direct check of every live
// document's text, whether each shard verifies its candidates on one
// goroutine or on several, at one shard or two; ranked queries with
// positional conditions return the same matches and scores at every width.
// Each query has more candidates per shard than one verification chunk
// holds.
func TestParallelVerifyMatchesSerial(t *testing.T) {
	texts := verifyTexts(46, 240)
	checks := []struct {
		name  string
		check query.Check
		run   func(*Engine) ([]DocID, error)
	}{
		{"phrase2", query.Check{Kind: "phrase", Ordered: []string{"alpha", "beta"}},
			func(e *Engine) ([]DocID, error) { return e.SearchPhrase("alpha beta") }},
		{"phrase3", query.Check{Kind: "phrase", Ordered: []string{"gamma", "delta", "gamma"}},
			func(e *Engine) ([]DocID, error) { return e.SearchPhrase("gamma delta gamma") }},
		{"near", query.Check{Kind: "near", A: "epsilon", B: "zeta", K: 2},
			func(e *Engine) ([]DocID, error) { return e.SearchBoolean("epsilon near/2 zeta") }},
		{"title", query.Check{Kind: "region", Region: "title", Word: "gamma"},
			func(e *Engine) ([]DocID, error) { return e.SearchBoolean("title:gamma") }},
		{"body", query.Check{Kind: "region", Region: "body", Word: "alpha"},
			func(e *Engine) ([]DocID, error) { return e.SearchBoolean("body:alpha") }},
	}
	ranked := []string{`"alpha beta" and gamma`, `"delta epsilon" or title:zeta`, `beta near/3 delta`}

	refMatches := map[int]map[string][]Match{}
	for _, shards := range []int{1, 2} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				eng, err := Open(Options{Dir: t.TempDir(), Shards: shards, Workers: workers, KeepDocuments: true, Buckets: 8, BucketSize: 128})
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				// On two shards, filler splits the texts between them.
				lead := 0
				if shards > 1 {
					lead = shardSpan - len(texts)/2
					addFiller(t, eng, lead)
				}
				deleted := map[DocID]bool{}
				for i, text := range texts {
					id := eng.AddDocument(text)
					if i%7 == 3 {
						eng.Delete(id)
						deleted[id] = true
					}
					if i == 159 { // the rest stay pending
						if _, err := eng.FlushBatch(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if shards > 1 {
					requireShardsHoldDocs(t, eng)
				}
				for _, c := range checks {
					got, err := c.run(eng)
					if err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					var want []DocID
					candidates := 0
					for i, text := range texts {
						id := DocID(lead + i + 1)
						if deleted[id] || !holdsAll(text, eng.opts.Lexer, c.check) {
							continue
						}
						candidates++
						if c.check.MatchText(text, eng.opts.Lexer) {
							want = append(want, id)
						}
					}
					if candidates <= 2*shards*verifyChunk || len(want) == 0 || len(want) == candidates {
						t.Fatalf("%s: %d of %d candidates match; want several chunks per shard, some kept and some dropped", c.name, len(want), candidates)
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s = %v\nwant %v", c.name, got, want)
					}
				}
				matches := map[string][]Match{}
				for _, q := range ranked {
					if matches[q], err = eng.Query(q, 50); err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					if len(matches[q]) == 0 {
						t.Fatalf("%s matched nothing", q)
					}
				}
				// Ranked scores are shard-local, so each shard count has
				// its own one-worker reference.
				ref, ok := refMatches[shards]
				if !ok {
					refMatches[shards] = matches
					return
				}
				for q, got := range matches {
					if !slices.Equal(got, ref[q]) {
						t.Errorf("%s differs from one worker:\n got %v\nwant %v", q, got, ref[q])
					}
				}
			})
		}
	}
}

// holdsAll reports whether text contains every word check names: whether
// the document is one of check's verification candidates.
func holdsAll(text string, opt lexer.Options, check query.Check) bool {
	toks := lexer.Tokenize(text, opt)
	for _, w := range append(slices.Clone(check.Ordered), check.A, check.B, check.Word) {
		if w != "" && !slices.Contains(toks, w) {
			return false
		}
	}
	return true
}

// faultyStore is a document store that fails the Get of one document:
// with err, or, when err is nil, by reporting the document missing.
type faultyStore struct {
	docstore.Store
	doc postings.DocID
	err error
}

func (f faultyStore) Get(id postings.DocID) (string, bool, error) {
	if id != f.doc {
		return f.Store.Get(id)
	}
	if f.err != nil {
		return "", false, f.err
	}
	return "", false, nil
}

// TestParallelVerifyErrorsSurface: a candidate whose text cannot be read,
// in a later chunk than the first, fails a phrase query outright — through
// SearchPhrase and through Query — with no matches, at every width.
func TestParallelVerifyErrorsSurface(t *testing.T) {
	errRead := errors.New("injected read failure")
	for _, workers := range []int{1, 2, 4} {
		for _, fault := range []error{errRead, nil} {
			eng, err := Open(Options{Workers: workers, KeepDocuments: true, Buckets: 8, BucketSize: 128})
			if err != nil {
				t.Fatal(err)
			}
			var ids []DocID
			for i := 0; i < 5*verifyChunk; i++ {
				ids = append(ids, eng.AddDocument("the alpha beta words"))
			}
			if _, err := eng.FlushBatch(); err != nil {
				t.Fatal(err)
			}
			s := eng.shards[0]
			s.docs = faultyStore{Store: s.docs, doc: ids[3*verifyChunk+5], err: fault}
			want := func(err error) bool {
				if fault != nil {
					return errors.Is(err, errRead)
				}
				return err != nil && strings.Contains(err.Error(), "missing from the document store")
			}
			docs, err := eng.SearchPhrase("alpha beta")
			if !want(err) || docs != nil {
				t.Errorf("workers=%d fault=%v: SearchPhrase = %v, %v", workers, fault, docs, err)
			}
			ms, err := eng.Query(`"alpha beta"`, 10)
			if !want(err) || ms != nil {
				t.Errorf("workers=%d fault=%v: Query = %v, %v", workers, fault, ms, err)
			}
			eng.Close()
		}
	}
}

// BenchmarkVerifyDocs times one shard's verification of 300 flushed
// candidates from the document log, on one worker and on two. The phrase
// occurs in some documents, so most candidates are scanned to their end.
func BenchmarkVerifyDocs(b *testing.B) {
	texts := verifyTexts(46, 300)
	for i := range texts {
		texts[i] += " " + strings.Repeat("delta zeta epsilon beta ", 20)
	}
	check := query.Check{Kind: "phrase", Ordered: []string{"alpha", "beta", "gamma"}}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng, err := Open(Options{Dir: b.TempDir(), Workers: workers, KeepDocuments: true, Buckets: 8, BucketSize: 128})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			var ids []DocID
			for _, text := range texts {
				ids = append(ids, eng.AddDocument(text))
			}
			if _, err := eng.FlushBatch(); err != nil {
				b.Fatal(err)
			}
			s := eng.shards[0]
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				s.mu.RLock()
				_, err := s.verifyDocs(ids, check)
				s.mu.RUnlock()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
