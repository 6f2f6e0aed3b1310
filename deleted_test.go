package dualindex

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// deletionAnswers collects what deletions must decide: the boolean answer
// of every vocabulary word and a few combinations, two phrase answers, and
// which of the texts, documents lead+1 onwards, the store still returns.
func deletionAnswers(t *testing.T, eng *Engine, texts []string, lead int) []string {
	t.Helper()
	var out []string
	queries := []string{"waa and wab", "wac or wad", "waa and not wab"}
	for i := 0; i < 25; i++ {
		queries = append(queries, synthWord(i))
	}
	for _, q := range queries {
		docs, err := eng.SearchBoolean(q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s: %v", q, docs))
	}
	for _, text := range []string{texts[3], texts[len(texts)-2]} {
		phrase := strings.Join(strings.Fields(text)[:2], " ")
		docs, err := eng.SearchPhrase(phrase)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%q: %v", phrase, docs))
	}
	for id := DocID(lead + 1); int(id) <= lead+len(texts); id++ {
		_, ok, err := eng.Document(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("doc %d: %v", id, ok))
	}
	return out
}

// TestRandomOrderDeletesSurviveSweepAndReopen deletes flushed and
// still-pending documents in random order, then sweeps, closes and reopens:
// every answer must stay the pre-sweep filtered answer. A pending document's
// deletion must outlive the sweep, which cannot reclaim postings that have
// not reached the index yet, and hold once its batch is flushed.
func TestRandomOrderDeletesSurviveSweepAndReopen(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := smallOpts(shards)
			opts.Dir = t.TempDir()
			opts.KeepDocuments = true
			eng, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			// On two shards, filler puts the second batch across the
			// boundary of shard 0's span and the pending documents on
			// shard 1.
			lead := 0
			if shards > 1 {
				lead = shardSpan - 60
				addFiller(t, eng, lead)
			}
			texts := synthTexts(41, 120, 25, 12)
			buildCorpus(t, eng, texts[:50])
			buildCorpus(t, eng, texts[50:90])
			for _, text := range texts[90:] {
				eng.AddDocument(text) // texts 90..119 stay pending
			}
			if shards > 1 {
				requireShardsHoldDocs(t, eng)
			}
			r := rand.New(rand.NewSource(17))
			victims := r.Perm(len(texts))[:40]
			if !slices.ContainsFunc(victims, func(i int) bool { return i >= 90 }) {
				t.Fatal("no pending document among the victims")
			}
			for _, i := range victims {
				eng.Delete(DocID(lead + i + 1))
			}
			eng.Delete(DocID(lead + victims[0] + 1)) // deleting twice is a no-op
			want := deletionAnswers(t, eng, texts, lead)
			for _, i := range victims {
				if !slices.Contains(want, fmt.Sprintf("doc %d: false", lead+i+1)) {
					t.Fatalf("deleted document %d still served", lead+i+1)
				}
			}

			same := func(stage string, eng *Engine) {
				t.Helper()
				got := deletionAnswers(t, eng, texts, lead)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: %s, want %s", stage, got[i], want[i])
					}
				}
				if err := eng.CheckConsistency(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
			}
			if err := eng.Sweep(); err != nil {
				t.Fatal(err)
			}
			same("after sweep", eng)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			same("after reopen", re)
			if _, err := re.FlushBatch(); err != nil {
				t.Fatal(err)
			}
			same("after flushing the pending documents", re)
			if err := re.Sweep(); err != nil {
				t.Fatal(err)
			}
			same("after the second sweep", re)
			if n := re.Stats().Deleted; n != 0 {
				t.Fatalf("%d deletions left after the second sweep", n)
			}
		})
	}
}

// TestDeleteUnassignedIDIsIgnored: deleting an identifier no document holds
// yet — 0, or one past the last AddDocument — must not hide the document
// that is later assigned it, pending or flushed.
func TestDeleteUnassignedIDIsIgnored(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, err := Open(smallOpts(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			eng.Delete(0)
			eng.Delete(3)
			var want []DocID
			for i := 0; i < 4; i++ {
				want = append(want, eng.AddDocument("common "+synthWord(i)))
			}
			for _, phase := range []string{"pending", "flushed"} {
				if phase == "flushed" {
					if _, err := eng.FlushBatch(); err != nil {
						t.Fatal(err)
					}
				}
				got, err := eng.SearchBoolean("common")
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s: common = %v, want %v", phase, got, want)
				}
			}
		})
	}
}

// TestDeleteDurableWithoutDocumentFlush: a deletion must survive a reopen
// even when no later batch carries documents. A flushed document's
// deletion is checkpointed by a document-less FlushBatch, which counts as
// no batch, and a pending document's by Close. Each cell checks the
// reopened engine; the flushed cell also checks a copy of the directory
// taken right after the FlushBatch, as a crash before Close would leave it.
func TestDeleteDurableWithoutDocumentFlush(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, flushed := range []bool{true, false} {
			t.Run(fmt.Sprintf("shards=%d/flushed=%v", shards, flushed), func(t *testing.T) {
				opts := smallOpts(shards)
				opts.Dir = t.TempDir()
				opts.KeepDocuments = true
				eng, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				// On two shards, filler puts two documents on each shard.
				if shards > 1 {
					addFiller(t, eng, shardSpan-2)
				}
				var ids []DocID
				for i := 0; i < 4; i++ {
					ids = append(ids, eng.AddDocument("common "+synthWord(i)))
				}
				if shards > 1 {
					requireShardsHoldDocs(t, eng)
				}
				if flushed {
					if _, err := eng.FlushBatch(); err != nil {
						t.Fatal(err)
					}
				}
				victim := ids[1]
				eng.Delete(victim)
				want := slices.Delete(slices.Clone(ids), 1, 2)

				check := func(stage string, opts Options) {
					t.Helper()
					re, err := Open(opts)
					if err != nil {
						t.Fatal(err)
					}
					defer re.Close()
					got, err := re.SearchBoolean("common")
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s: common = %v, want %v", stage, got, want)
					}
					if _, ok, err := re.Document(victim); err != nil || ok {
						t.Errorf("%s: Document(%d) = ok %v, err %v; want deleted", stage, victim, ok, err)
					}
				}
				if flushed {
					batches := eng.Stats().Batches
					if _, err := eng.FlushBatch(); err != nil {
						t.Fatal(err)
					}
					if got := eng.Stats().Batches; got != batches {
						t.Errorf("document-less FlushBatch counted a batch: %d, want %d", got, batches)
					}
					crash := opts
					crash.Dir = t.TempDir()
					copyTree(t, crash.Dir, opts.Dir)
					check("crash image after FlushBatch", crash)
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				check("reopen after Close", opts)
			})
		}
	}
}

// copyTree copies the regular files under src into dst, keeping the layout.
func copyTree(t *testing.T, dst, src string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
