package dualindex

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"dualindex/internal/corpus"
	"dualindex/internal/lexer"
	"dualindex/internal/postings"
	"dualindex/internal/vocab"
)

// TestWordIDsMatchReference: every path that indexes text gives each shard
// exactly the word identifiers of a reference that tokenizes each document
// into its sorted word set and assigns with GetOrAssign, in arrival order.
// The paths are AddDocument across flushes, recovery of unflushed documents
// at Open (from a crash image and after Close), and Reshard's stream. The
// identifiers fix every word's bucket, so this is what keeps traces and
// artifacts where they are. Where documents are pending, the tier's runs
// must also equal runs pushed from the reference's word sets.
func TestWordIDsMatchReference(t *testing.T) {
	cfg := corpus.DefaultConfig()
	// Enough documents that Reshard(2) places some on shard 1.
	cfg.Seed, cfg.Days, cfg.DocsPerDay, cfg.WordsPerDoc, cfg.VocabSize = 7, 4, 270, 30, 4000
	batches, err := corpus.GenerateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for day, b := range batches {
		for _, d := range b.Docs {
			text := corpus.DocText(d, day)
			if len(texts)%3 == 1 {
				// Mixed case and repeated words: new words arrive out of
				// order and more than once.
				text = strings.ToUpper(text[:len(text)/2]) + text[len(text)/2:] + "\n" + text
			}
			texts = append(texts, text)
		}
	}
	// Tokenize yields each document's word set, dropping repeated words;
	// the subtest is named for that.
	t.Run("KeepDuplicates=false", func(t *testing.T) {
		opts := smallOpts(1)
		opts.BlocksPerDisk = 8192 // room for the larger corpus
		opts.Dir = t.TempDir()
		opts.KeepDocuments = true
		// want is the reference vocabulary of the documents with the
		// given identifiers, serialised in identifier order.
		want := func(docs []DocID) []byte {
			v := vocab.New()
			for _, d := range docs {
				for _, w := range lexer.Tokenize(texts[d-1], opts.Lexer) {
					v.GetOrAssign(w)
				}
			}
			return v.AppendLog(nil, 0)
		}
		check := func(stage string, eng *Engine, shardDocs func(i int) []DocID) {
			t.Helper()
			for i, s := range eng.shards {
				s.mu.RLock()
				got := s.vocab.AppendLog(nil, 0)
				s.mu.RUnlock()
				if w := want(shardDocs(i)); !bytes.Equal(got, w) {
					t.Errorf("%s: shard %d vocabulary differs from the reference (%d bytes, want %d)", stage, i, len(got), len(w))
				}
			}
		}
		// checkPending compares the single shard's pending tier with runs
		// pushed from the reference's word sets: one posting per document and
		// word.
		checkPending := func(stage string, eng *Engine, docs []DocID) {
			t.Helper()
			s := eng.shards[0]
			s.mu.RLock()
			defer s.mu.RUnlock()
			runs := map[string]*postings.List{}
			for _, d := range docs {
				for _, w := range lexer.Tokenize(texts[d-1], opts.Lexer) {
					if runs[w] == nil {
						runs[w] = &postings.List{}
					}
					runs[w].Push(d)
				}
			}
			if len(runs) != len(s.pending.words) {
				t.Errorf("%s: pending tier holds %d words, want %d", stage, len(s.pending.words), len(runs))
			}
			for w, run := range runs {
				id, _ := s.vocab.Lookup(w)
				if got := s.pending.words[id]; !slices.Equal(got.Docs(), run.Docs()) {
					t.Errorf("%s: pending run of %q = %v, want %v", stage, w, got.Docs(), run.Docs())
					return
				}
			}
		}

		eng, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		var all []DocID
		unflushed := 0
		for i, text := range texts {
			all = append(all, eng.AddDocument(text))
			unflushed++
			if i < len(texts)*2/3 && i%25 == 24 {
				if _, err := eng.FlushBatch(); err != nil {
					t.Fatal(err)
				}
				unflushed = 0
			}
		}
		allDocs := func(int) []DocID { return all }
		check("AddDocument", eng, allDocs)
		checkPending("AddDocument", eng, all[len(all)-unflushed:])

		// A crash image: the unflushed documents are in the log (a Get
		// writes out its buffer), their new words only in memory.
		if _, _, err := eng.Document(all[len(all)-1]); err != nil {
			t.Fatal(err)
		}
		crash := opts
		crash.Dir = t.TempDir()
		copyTree(t, crash.Dir, opts.Dir)
		re, err := Open(crash)
		if err != nil {
			t.Fatal(err)
		}
		if got := re.PendingDocs(); got != unflushed {
			t.Errorf("crash image recovered %d pending documents, want %d", got, unflushed)
		}
		check("recovery from a crash image", re, allDocs)
		checkPending("recovery from a crash image", re, all[len(all)-unflushed:])
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}

		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		eng, err = Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		check("reopen after Close", eng, allDocs)

		if _, err := eng.Reshard(2); err != nil {
			t.Fatal(err)
		}
		requireShardsHoldDocs(t, eng)
		check("Reshard(2)", eng, func(i int) []DocID {
			var docs []DocID
			for _, d := range all {
				if shardOf(d, len(eng.shards)) == i {
					docs = append(docs, d)
				}
			}
			return docs
		})
		got, err := eng.SearchBoolean(lexer.Tokenize(texts[0], opts.Lexer)[0])
		if err != nil || !slices.Contains(got, all[0]) {
			t.Errorf("after Reshard(2), document 1's first word finds %v, %v", got, err)
		}
	})
}

// TestLongWordReopens: a word longer than 1 MiB is indexed, saved with the
// vocabulary and read back, so the index reopens and answers.
func TestLongWordReopens(t *testing.T) {
	opts := smallOpts(1)
	opts.Dir = t.TempDir()
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	id := eng.AddDocument("hello " + strings.Repeat("a", 1<<20+1))
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng, err = Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng.Close()
	got, err := eng.SearchBoolean("hello")
	if err != nil || !slices.Equal(got, []DocID{id}) {
		t.Errorf("hello = %v, %v; want [%d]", got, err, id)
	}
}
