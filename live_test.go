// Tests for the pending tier and Options.LiveSearch: a document must be
// servable by every query kind the moment AddDocument returns, with answers
// byte-equal to the flushed-then-queried ones — and, more generally, query
// answers must be invariant under flush placement.
package dualindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func liveEngine(t *testing.T, live bool, scoring string, shards int) *Engine {
	t.Helper()
	eng, err := Open(Options{
		KeepDocuments: true,
		LiveSearch:    live,
		Scoring:       scoring,
		Shards:        shards,
		Buckets:       8,
		BucketSize:    128,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// liveAnswers evaluates one of every query kind — boolean, prefix, phrase,
// proximity, region and ranked — and returns the answers keyed by kind.
func liveAnswers(t *testing.T, eng *Engine) map[string]any {
	t.Helper()
	out := map[string]any{}
	boolean, err := eng.SearchBoolean("quick and brown")
	if err != nil {
		t.Fatal(err)
	}
	out["boolean"] = boolean
	prefix, err := eng.SearchBoolean("qui*")
	if err != nil {
		t.Fatal(err)
	}
	out["prefix"] = prefix
	phrase, err := eng.SearchPhrase("quick brown")
	if err != nil {
		t.Fatal(err)
	}
	out["phrase"] = phrase
	near, err := eng.SearchNear("quick", "fox", 3)
	if err != nil {
		t.Fatal(err)
	}
	out["near"] = near
	region, err := eng.SearchInRegion("market", "title")
	if err != nil {
		t.Fatal(err)
	}
	out["region"] = region
	ranked, err := eng.Query(`"quick brown" or market`, 10)
	if err != nil {
		t.Fatal(err)
	}
	out["ranked"] = ranked
	return out
}

// TestLiveSearchImmediateVisibility is the tentpole's acceptance gate: with
// LiveSearch on, a document is returned by every query kind — under either
// scoring, on one shard or several — immediately after AddDocument, and the
// answers are deep-equal to the ones the same engine gives after flushing.
func TestLiveSearchImmediateVisibility(t *testing.T) {
	for _, scoring := range []string{ScoringVector, ScoringBM25} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", scoring, shards), func(t *testing.T) {
				eng := liveEngine(t, true, scoring, shards)
				defer eng.Close()
				// A flushed background so the on-disk tier participates too.
				eng.AddDocument("brown bears hibernate slowly")
				eng.AddDocument("Subject: quick note\n\nunrelated body text")
				if _, err := eng.FlushBatch(); err != nil {
					t.Fatal(err)
				}
				target := eng.AddDocument("Subject: market update\n\nthe quick brown fox jumps over markets")
				eng.AddDocument("another pending document about foxes")

				pre := liveAnswers(t, eng)
				for _, kind := range []string{"boolean", "prefix", "phrase", "near", "region"} {
					docs := pre[kind].([]DocID)
					found := false
					for _, d := range docs {
						found = found || d == target
					}
					if !found {
						t.Errorf("%s: pending doc %d missing from %v", kind, target, docs)
					}
				}
				found := false
				for _, m := range pre["ranked"].([]Match) {
					found = found || m.Doc == target
				}
				if !found {
					t.Errorf("ranked: pending doc %d missing from %v", target, pre["ranked"])
				}

				if _, err := eng.FlushBatch(); err != nil {
					t.Fatal(err)
				}
				post := liveAnswers(t, eng)
				if !reflect.DeepEqual(pre, post) {
					t.Errorf("answers changed across the flush:\n pre:  %v\n post: %v", pre, post)
				}
			})
		}
	}
}

// TestLiveSearchOnMatchesOff pins what LiveSearch selects — whether pending
// documents' positional tokens are cached in memory or read back from the
// document store — as invisible in answers: with half the corpus pending,
// an engine with LiveSearch on answers every query kind exactly like one
// with it off — same docs, same scores. The file-backed pair makes the off
// side verify buffered pending documents through the docs.log store.
func TestLiveSearchOnMatchesOff(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	texts := make([]string, 60)
	for i := range texts {
		texts[i] = liveInvarianceDoc(r)
	}
	queries := []string{
		"waa and wab", "wa* and not wac", "waa or (wab and wad)", "waa wab wac",
		`"waa wab"`, "waa near/4 wac", "title:waa or title:wab",
	}
	open := func(live bool, scoring string, dir string) *Engine {
		eng, err := Open(Options{
			Dir:           dir,
			KeepDocuments: true,
			LiveSearch:    live,
			Scoring:       scoring,
			Shards:        2,
			Buckets:       8,
			BucketSize:    128,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	for _, backend := range []string{"mem", "file"} {
		for _, scoring := range []string{ScoringVector, ScoringBM25} {
			dir := func() string {
				if backend == "file" {
					return t.TempDir()
				}
				return ""
			}
			on, off := open(true, scoring, dir()), open(false, scoring, dir())
			for i, text := range texts {
				on.AddDocument(text)
				off.AddDocument(text)
				if i == len(texts)/2 {
					// Half the corpus on disk, half pending.
					if _, err := on.FlushBatch(); err != nil {
						t.Fatal(err)
					}
					if _, err := off.FlushBatch(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, q := range queries {
				got, err := on.Query(q, 15)
				if err != nil {
					t.Fatal(err)
				}
				want, err := off.Query(q, 15)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s %q: LiveSearch on %v, off %v", backend, scoring, q, got, want)
				}
			}
			on.Close()
			off.Close()
		}
	}
}

// liveInvarianceDoc builds one synthetic document from a seeded source; a
// third get a Subject: title line so region queries have matches.
func liveInvarianceDoc(r *rand.Rand) string {
	var sb strings.Builder
	if r.Intn(3) == 0 {
		sb.WriteString("Subject: ")
		sb.WriteString(synthWord(r.Intn(10)))
		sb.WriteString(" report\n\n")
	}
	for j := 0; j < 12+r.Intn(10); j++ {
		sb.WriteString(synthWord(r.Intn(r.Intn(40) + 1)))
		sb.WriteByte(' ')
	}
	return sb.String()
}

// TestFlushInvarianceProperty is the flush-invariance property test: one
// fixed (seeded) document sequence, queried with the same unified-language
// workload under several flush schedules — never, every document, every
// third, every seventh, end only — must give identical Engine.Query answers
// under both scorings. Flushing is a durability event, not a semantic one.
func TestFlushInvarianceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	docs := make([]string, 48)
	for i := range docs {
		docs[i] = liveInvarianceDoc(r)
	}
	queries := []string{
		"waa and wab",
		"wab or (wac and not wad)",
		"wa* and wae",
		`"waa wab"`,
		"waa near/4 wac",
		"title:waa or title:wab",
		"waa wab wac wad",
	}
	schedules := map[string]int{"never": 0, "every": 1, "third": 3, "seventh": 7, "end": len(docs)}

	for _, scoring := range []string{ScoringVector, ScoringBM25} {
		baseline := map[string][]Match{}
		for name, every := range schedules {
			eng := liveEngine(t, true, scoring, 2)
			for i, d := range docs {
				eng.AddDocument(d)
				if every > 0 && (i+1)%every == 0 {
					if _, err := eng.FlushBatch(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, q := range queries {
				got, err := eng.Query(q, 20)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				want, pinned := baseline[q]
				if !pinned {
					baseline[q] = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %q: schedule %s answered %v, baseline answered %v",
						scoring, q, name, got, want)
				}
			}
			eng.Close()
		}
	}
}

// TestStatsPendingCounts covers the observability satellite: Stats and
// ShardStats report the unflushed volume, identically with LiveSearch on
// and off, and a flush drains the counts to zero.
func TestStatsPendingCounts(t *testing.T) {
	for _, live := range []bool{false, true} {
		eng := liveEngine(t, live, ScoringVector, 2)
		eng.AddDocument("one two three")
		eng.AddDocument("two three four five")
		st := eng.Stats()
		if st.PendingDocs != 2 {
			t.Errorf("live=%v: PendingDocs = %d, want 2", live, st.PendingDocs)
		}
		if st.PendingPostings != 7 {
			t.Errorf("live=%v: PendingPostings = %d, want 7", live, st.PendingPostings)
		}
		var docs int
		var posts int64
		for _, ss := range eng.ShardStats() {
			docs += ss.PendingDocs
			posts += ss.PendingPostings
		}
		if docs != st.PendingDocs || posts != st.PendingPostings {
			t.Errorf("live=%v: ShardStats sum (%d, %d) disagrees with Stats (%d, %d)",
				live, docs, posts, st.PendingDocs, st.PendingPostings)
		}
		if _, err := eng.FlushBatch(); err != nil {
			t.Fatal(err)
		}
		if st := eng.Stats(); st.PendingDocs != 0 || st.PendingPostings != 0 {
			t.Errorf("live=%v: after flush PendingDocs = %d, PendingPostings = %d, want 0, 0",
				live, st.PendingDocs, st.PendingPostings)
		}
		eng.Close()
	}
}

// TestLiveSearchDeletePending pins the deletion view across tiers: deleting
// a pending document removes it from live answers immediately, with and
// without LiveSearch.
func TestLiveSearchDeletePending(t *testing.T) {
	for _, live := range []bool{false, true} {
		eng := liveEngine(t, live, ScoringVector, 1)
		keep := eng.AddDocument("shared words here")
		gone := eng.AddDocument("shared words there")
		eng.Delete(gone)
		docs, err := eng.SearchBoolean("shared and words")
		if err != nil {
			t.Fatal(err)
		}
		if len(docs) != 1 || docs[0] != keep {
			t.Errorf("live=%v: post-delete answer = %v, want [%d]", live, docs, keep)
		}
		eng.Close()
	}
}
