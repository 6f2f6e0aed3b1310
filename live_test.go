// Tests for the pending tier: a document must be servable by every query
// kind the moment AddDocument returns, with answers byte-equal to the
// flushed-then-queried ones — and, more generally, query answers must be
// invariant under flush placement.
package dualindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// liveEngine opens an in-memory engine that keeps documents. live sets
// Options.LiveSearch, which has no effect; callers still pass it.
func liveEngine(t *testing.T, live bool, shards int) *Engine {
	t.Helper()
	eng, err := Open(Options{
		KeepDocuments: true,
		LiveSearch:    live,
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
	near, err := eng.SearchBoolean("quick near/3 fox")
	if err != nil {
		t.Fatal(err)
	}
	out["near"] = near
	region, err := eng.SearchBoolean("title:market")
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

// TestLiveSearchImmediateVisibility: a document is returned by every query
// kind — on one shard or several — immediately after AddDocument, and the
// answers are deep-equal to the ones the same engine gives after flushing.
func TestLiveSearchImmediateVisibility(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%s/shards=%d", ScoringVector, shards), func(t *testing.T) {
			eng := liveEngine(t, true, shards)
			defer eng.Close()
			// On three shards, filler puts the flushed background on
			// shard 0 and the pending documents on shard 1.
			if shards > 1 {
				addFiller(t, eng, shardSpan-2)
			}
			// A flushed background so the on-disk tier participates too.
			eng.AddDocument("brown bears hibernate slowly")
			eng.AddDocument("Subject: quick note\n\nunrelated body text")
			if _, err := eng.FlushBatch(); err != nil {
				t.Fatal(err)
			}
			target := eng.AddDocument("Subject: market update\n\nthe quick brown fox jumps over markets")
			eng.AddDocument("another pending document about foxes")
			if shards > 1 {
				requireShardsHoldDocs(t, eng)
			}

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

// TestPendingPositionalMatchesFlushed pins the one verify path: pending and
// flushed candidates both verify by streaming their stored text. With half
// the corpus pending, phrase, proximity and region answers equal the
// answers after the rest is flushed, on the mem and file backends. On the
// file backend the pending documents' text is still in the docs.log write
// buffer when the first answers are taken.
func TestPendingPositionalMatchesFlushed(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	texts := make([]string, 60)
	for i := range texts {
		texts[i] = liveInvarianceDoc(r)
	}
	queries := []string{
		`"waa wab"`, `"wab waa"`, "waa near/4 wac", "wab near/2 wab",
		"title:waa or title:wab", "body:wac and not title:wac", `"waa wab" or wac near/1 wad`,
	}
	for _, backend := range []string{"mem", "file"} {
		dir := ""
		if backend == "file" {
			dir = t.TempDir()
		}
		eng, err := Open(Options{Dir: dir, KeepDocuments: true, Shards: 2, Buckets: 8, BucketSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		// Filler puts the pending half of the corpus across the boundary of
		// shard 0's span.
		addFiller(t, eng, shardSpan-45)
		var firstPending DocID
		for i, text := range texts {
			d := eng.AddDocument(text)
			if i == len(texts)/2 {
				// Half the corpus on disk, half pending.
				if _, err := eng.FlushBatch(); err != nil {
					t.Fatal(err)
				}
				firstPending = d + 1
			}
		}
		requireShardsHoldDocs(t, eng)
		answers := func() [][]Match {
			out := make([][]Match, len(queries))
			for i, q := range queries {
				ms, err := eng.Query(q, len(texts))
				if err != nil {
					t.Fatalf("%s %q: %v", backend, q, err)
				}
				out[i] = ms
			}
			return out
		}
		pre := answers()
		pendingHits := 0
		for _, ms := range pre {
			for _, m := range ms {
				if m.Doc >= firstPending {
					pendingHits++
				}
			}
		}
		if pendingHits == 0 {
			t.Fatalf("%s: no positional query matched a pending document: %v", backend, pre)
		}
		if _, err := eng.FlushBatch(); err != nil {
			t.Fatal(err)
		}
		if post := answers(); !reflect.DeepEqual(pre, post) {
			t.Errorf("%s: pending answers %v, flushed answers %v", backend, pre, post)
		}
		eng.Close()
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
// third, every seventh, end only — must give identical Engine.Query answers.
// Flushing is a durability event, not a semantic one.
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

	baseline := map[string][]Match{}
	for name, every := range schedules {
		eng := liveEngine(t, true, 2)
		// Filler puts the documents across the boundary of shard 0's
		// span.
		addFiller(t, eng, shardSpan-len(docs)/2)
		for i, d := range docs {
			eng.AddDocument(d)
			if every > 0 && (i+1)%every == 0 {
				if _, err := eng.FlushBatch(); err != nil {
					t.Fatal(err)
				}
			}
		}
		requireShardsHoldDocs(t, eng)
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
				t.Errorf("%q: schedule %s answered %v, baseline answered %v",
					q, name, got, want)
			}
		}
		eng.Close()
	}
}

// TestStatsPendingCounts covers the observability satellite: Stats and
// ShardStats report the unflushed volume, and a flush drains the counts to
// zero.
func TestStatsPendingCounts(t *testing.T) {
	eng := liveEngine(t, false, 2)
	defer eng.Close()
	// Filler puts the two pending documents on different shards.
	addFiller(t, eng, shardSpan-1)
	eng.AddDocument("one two three")
	eng.AddDocument("two three four five")
	requireShardsHoldDocs(t, eng)
	for i, ss := range eng.ShardStats() {
		if ss.PendingDocs != 1 {
			t.Errorf("shard %d holds %d pending documents, want 1", i, ss.PendingDocs)
		}
	}
	st := eng.Stats()
	if st.PendingDocs != 2 {
		t.Errorf("PendingDocs = %d, want 2", st.PendingDocs)
	}
	if st.PendingPostings != 7 {
		t.Errorf("PendingPostings = %d, want 7", st.PendingPostings)
	}
	var docs int
	var posts int64
	for _, ss := range eng.ShardStats() {
		docs += ss.PendingDocs
		posts += ss.PendingPostings
	}
	if docs != st.PendingDocs || posts != st.PendingPostings {
		t.Errorf("ShardStats sum (%d, %d) disagrees with Stats (%d, %d)",
			docs, posts, st.PendingDocs, st.PendingPostings)
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.PendingDocs != 0 || st.PendingPostings != 0 {
		t.Errorf("after flush PendingDocs = %d, PendingPostings = %d, want 0, 0",
			st.PendingDocs, st.PendingPostings)
	}
}

// TestLiveSearchDeletePending pins the deletion view across tiers: deleting
// a pending document removes it from live answers immediately.
func TestLiveSearchDeletePending(t *testing.T) {
	eng := liveEngine(t, false, 1)
	defer eng.Close()
	keep := eng.AddDocument("shared words here")
	gone := eng.AddDocument("shared words there")
	eng.Delete(gone)
	docs, err := eng.SearchBoolean("shared and words")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0] != keep {
		t.Errorf("post-delete answer = %v, want [%d]", docs, keep)
	}
}
