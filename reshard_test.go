package dualindex

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dualindex/internal/manifest"
)

// reshardOpts is smallOpts plus a persistent directory and a document
// store — resharding streams documents out of the docstore, so
// KeepDocuments is a prerequisite for every reshard test.
func reshardOpts(dir string, shards int) Options {
	opts := smallOpts(shards)
	opts.Dir = dir
	opts.KeepDocuments = true
	return opts
}

// buildCorpus adds the texts and flushes once.
func buildCorpus(t *testing.T, eng *Engine, texts []string) {
	t.Helper()
	for _, text := range texts {
		eng.AddDocument(text)
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
}

// reshardQueries is the acceptance probe: a mix of single-word, boolean,
// truncation and phrase-free vector queries over the synthetic vocabulary.
var reshardQueries = []string{
	"waa",
	"wab or wac",
	"(waa and wad) or waf",
	"wa*",
	"waa and not wab",
}

// sameAnswers fails the test unless both engines return identical results
// for every probe query — the resharded index must be indistinguishable
// from an index built at the target shard count from scratch.
func sameAnswers(t *testing.T, got, want *Engine) {
	t.Helper()
	for _, q := range reshardQueries {
		g, err := got.SearchBoolean(q)
		if err != nil {
			t.Fatalf("boolean %q: %v", q, err)
		}
		w, err := want.SearchBoolean(q)
		if err != nil {
			t.Fatalf("boolean %q (reference): %v", q, err)
		}
		if !slices.Equal(g, w) {
			t.Errorf("boolean %q: got %v, want %v", q, g, w)
		}
	}
	for _, q := range []string{"waa wab", "wac wad wae"} {
		g, err := got.SearchVector(q, 10)
		if err != nil {
			t.Fatalf("vector %q: %v", q, err)
		}
		w, err := want.SearchVector(q, 10)
		if err != nil {
			t.Fatalf("vector %q (reference): %v", q, err)
		}
		if len(g) != len(w) {
			t.Fatalf("vector %q: %d matches, want %d", q, len(g), len(w))
		}
		for i := range g {
			if g[i].Doc != w[i].Doc || math.Abs(g[i].Score-w[i].Score) > 1e-9 {
				t.Errorf("vector %q match %d: got %v, want %v", q, i, g[i], w[i])
			}
		}
	}
}

// TestReshardMatchesFreshIndex is the tentpole's acceptance test: a 2-shard
// persistent index resharded to 4 answers every probe query exactly like a
// 4-shard index built from the same corpus from scratch, stays consistent,
// and a reopen with Shards=0 adopts the rewritten manifest.
func TestReshardMatchesFreshIndex(t *testing.T) {
	texts := synthTexts(41, shardSpan+120, 30, 20)

	dir := t.TempDir()
	eng, err := Open(reshardOpts(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	buildCorpus(t, eng, texts)
	requireShardsHoldDocs(t, eng)

	st, err := eng.Reshard(4)
	if err != nil {
		t.Fatal(err)
	}
	if st.FromShards != 2 || st.ToShards != 4 {
		t.Errorf("reshard %d -> %d, want 2 -> 4", st.FromShards, st.ToShards)
	}
	if st.Docs != len(texts) || st.Skipped != 0 {
		t.Errorf("migrated %d docs (skipped %d), want %d (0)", st.Docs, st.Skipped, len(texts))
	}
	if st.Batches < 1 || st.Dur <= 0 {
		t.Errorf("stats %+v: batches and duration must be positive", st)
	}
	if err := eng.CheckConsistency(); err != nil {
		t.Fatalf("consistency after reshard: %v", err)
	}
	requireShardsHoldDocs(t, eng)

	fresh, err := Open(reshardOpts(t.TempDir(), 4))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	buildCorpus(t, fresh, texts)
	sameAnswers(t, eng, fresh)

	// The staging machinery must leave no residue behind the commit.
	for _, name := range []string{reshardStagingName, reshardCommitName} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s left behind after commit", name)
		}
	}
	m, err := manifest.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 4 {
		t.Errorf("manifest records %d shards, want 4", m.Shards)
	}

	// Reopen with Shards=0: the manifest decides the layout.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(reshardOpts(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if len(reopened.shards) != 4 {
		t.Fatalf("reopened with %d shards, want 4 from manifest", len(reopened.shards))
	}
	if err := reopened.CheckConsistency(); err != nil {
		t.Fatalf("consistency after reopen: %v", err)
	}
	sameAnswers(t, reopened, fresh)

	// The resharded index keeps growing: new documents are placed at the
	// new count and are queryable.
	doc := reopened.AddDocument("waa wab zzunique")
	if _, err := reopened.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	hits, err := reopened.SearchBoolean("zzunique")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(hits, []DocID{doc}) {
		t.Errorf("post-reshard add: got %v, want [%d]", hits, doc)
	}
}

// TestReshardInMemory grows 1 -> 3 and shrinks 3 -> 2 without a directory:
// the staged shards live in memory and the swap is purely an in-process
// exchange.
func TestReshardInMemory(t *testing.T) {
	texts := synthTexts(43, shardSpan+90, 30, 20)
	opts := smallOpts(1)
	opts.KeepDocuments = true
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	buildCorpus(t, eng, texts)

	if _, err := eng.Reshard(3); err != nil {
		t.Fatalf("1 -> 3: %v", err)
	}
	if err := eng.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	requireShardsHoldDocs(t, eng)
	st, err := eng.Reshard(2)
	if err != nil {
		t.Fatalf("3 -> 2: %v", err)
	}
	if st.FromShards != 3 || st.ToShards != 2 || st.Docs != len(texts) {
		t.Errorf("shrink stats %+v", st)
	}
	requireShardsHoldDocs(t, eng)

	opts2 := smallOpts(2)
	opts2.KeepDocuments = true
	fresh, err := Open(opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	buildCorpus(t, fresh, texts)
	sameAnswers(t, eng, fresh)
}

// TestReshardSkipsDeleted pins the implicit sweep: logically deleted
// documents are not migrated, the stats report them as skipped, and the new
// layout starts with a clean deleted list.
func TestReshardSkipsDeleted(t *testing.T) {
	texts := synthTexts(47, shardSpan+80, 30, 20)
	eng, err := Open(reshardOpts(t.TempDir(), 2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	buildCorpus(t, eng, texts)
	requireShardsHoldDocs(t, eng)

	deleted := []DocID{3, 17, shardSpan + 42} // on shards 0, 0 and 1
	for _, d := range deleted {
		eng.Delete(d)
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}

	st, err := eng.Reshard(3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != len(deleted) {
		t.Errorf("skipped %d, want %d", st.Skipped, len(deleted))
	}
	if st.Docs != len(texts)-len(deleted) {
		t.Errorf("migrated %d, want %d", st.Docs, len(texts)-len(deleted))
	}
	if got := eng.Stats().Deleted; got != 0 {
		t.Errorf("deleted count after reshard = %d, want 0 (implicit sweep)", got)
	}
	requireShardsHoldDocs(t, eng)
	for _, d := range deleted {
		if _, ok, _ := eng.Document(d); ok {
			t.Errorf("deleted doc %d survived the reshard", d)
		}
	}
	hits, err := eng.SearchBoolean("wa*")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deleted {
		if slices.Contains(hits, d) {
			t.Errorf("deleted doc %d still matches queries", d)
		}
	}
}

// TestReshardKeepsHighWater: a reshard carries the old layout's high-water
// document identifier, so a reopen continues the identifier sequence past
// the deleted documents the migration left behind, also when none survived
// and no staged shard received a document. A later reshard then streams
// from shards that hold no document without taking them for shards whose
// documents are missing.
func TestReshardKeepsHighWater(t *testing.T) {
	for _, c := range []struct {
		name    string
		deleted []DocID
	}{
		{"trailing docs deleted", []DocID{9, 10}},
		{"every doc deleted", []DocID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			eng, err := Open(reshardOpts(dir, 2))
			if err != nil {
				t.Fatal(err)
			}
			buildCorpus(t, eng, synthTexts(31, 10, 20, 10))
			for _, d := range c.deleted {
				eng.Delete(d)
			}
			if _, err := eng.Reshard(3); err != nil {
				t.Fatal(err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(reshardOpts(dir, 0))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if id := re.AddDocument("alpha"); id != 11 {
				t.Fatalf("AddDocument after reshard and reopen = %d, want 11", id)
			}
			if _, err := re.Reshard(2); err != nil {
				t.Fatal(err)
			}
			if id := re.AddDocument("beta"); id != 12 {
				t.Fatalf("AddDocument after a second reshard = %d, want 12", id)
			}
		})
	}
}

// TestReshardErrors pins the refusal paths: a reshard needs a document
// store to stream from, a genuinely different shard count, and a positive
// target.
func TestReshardErrors(t *testing.T) {
	eng, err := Open(smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, text := range synthTexts(53, 10, 20, 10) {
		eng.AddDocument(text)
	}
	if _, err := eng.Reshard(4); err == nil || !strings.Contains(err.Error(), "KeepDocuments") {
		t.Errorf("reshard without a docstore: err = %v, want KeepDocuments guidance", err)
	}

	kept, err := Open(reshardOpts(t.TempDir(), 2))
	if err != nil {
		t.Fatal(err)
	}
	defer kept.Close()
	buildCorpus(t, kept, synthTexts(53, 10, 20, 10))
	if _, err := kept.Reshard(2); err == nil || !strings.Contains(err.Error(), "already has 2 shards") {
		t.Errorf("no-op reshard: err = %v", err)
	}
	if _, err := kept.Reshard(0); err == nil {
		t.Error("reshard to 0 shards accepted")
	}
}

// TestReshardStagingDiscarded simulates a crash before the commit rename: a
// leftover .resharding directory is discarded on Open and the index serves
// its old layout untouched.
func TestReshardStagingDiscarded(t *testing.T) {
	texts := synthTexts(59, shardSpan+60, 25, 15)
	dir := t.TempDir()
	eng, err := Open(reshardOpts(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	buildCorpus(t, eng, texts)
	requireShardsHoldDocs(t, eng)
	want, err := eng.SearchBoolean("wa*")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	staging := filepath.Join(dir, reshardStagingName)
	if err := os.MkdirAll(filepath.Join(staging, "shard-0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(staging, "shard-0", "disk0.dat"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(reshardOpts(dir, 0))
	if err != nil {
		t.Fatalf("open with stale staging: %v", err)
	}
	defer reopened.Close()
	if _, err := os.Stat(staging); !os.IsNotExist(err) {
		t.Error("stale staging directory survived Open")
	}
	if len(reopened.shards) != 2 {
		t.Errorf("layout changed by an uncommitted reshard: %d shards, want 2", len(reopened.shards))
	}
	got, err := reopened.SearchBoolean("wa*")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("results changed across the discarded staging: got %v, want %v", got, want)
	}
}

// TestReshardCommitRollForward simulates a crash after the atomic rename
// but before the roll-forward: Open finds a .reshard-commit directory,
// moves its contents into place (manifest last) and serves the new layout.
func TestReshardCommitRollForward(t *testing.T) {
	texts := synthTexts(61, shardSpan+100, 30, 20)
	dir := t.TempDir()

	// The pre-crash index: 2 shards.
	old, err := Open(reshardOpts(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	buildCorpus(t, old, texts)
	requireShardsHoldDocs(t, old)
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	// The committed-but-not-rolled-forward layout: a complete 4-shard
	// index (manifest included) sitting in .reshard-commit, exactly what
	// the post-rename crash window leaves behind.
	commit := filepath.Join(dir, reshardCommitName)
	staged, err := Open(reshardOpts(commit, 4))
	if err != nil {
		t.Fatal(err)
	}
	buildCorpus(t, staged, texts)
	if err := staged.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(reshardOpts(dir, 0))
	if err != nil {
		t.Fatalf("open with pending commit: %v", err)
	}
	defer reopened.Close()
	if _, err := os.Stat(commit); !os.IsNotExist(err) {
		t.Error("commit directory survived the roll-forward")
	}
	if len(reopened.shards) != 4 {
		t.Fatalf("rolled forward to %d shards, want 4", len(reopened.shards))
	}
	m, err := manifest.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 4 {
		t.Errorf("manifest records %d shards, want 4", m.Shards)
	}
	if err := reopened.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	requireShardsHoldDocs(t, reopened)

	fresh, err := Open(reshardOpts(t.TempDir(), 4))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	buildCorpus(t, fresh, texts)
	sameAnswers(t, reopened, fresh)
}

// TestReshardObserved checks the reshard instrumentation: the counters
// advance and the trace ring holds the reshard span with its per-shard
// stream spans.
func TestReshardObserved(t *testing.T) {
	opts := reshardOpts(t.TempDir(), 2)
	opts.Metrics = true
	opts.TraceBuffer = 512
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	buildCorpus(t, eng, synthTexts(67, 70, 25, 15))

	st, err := eng.Reshard(3)
	if err != nil {
		t.Fatal(err)
	}
	reg := eng.Metrics()
	if got := reg.Counter("reshards_total").Value(); got != 1 {
		t.Errorf("reshards_total = %d, want 1", got)
	}
	if got := reg.Counter("reshard_docs_total").Value(); got != int64(st.Docs) {
		t.Errorf("reshard_docs_total = %d, want %d", got, st.Docs)
	}
	if got := reg.Counter("reshard_batches_total").Value(); got != int64(st.Batches) {
		t.Errorf("reshard_batches_total = %d, want %d", got, st.Batches)
	}
	var reshardSpans, streamSpans int
	for _, ev := range eng.Tracer().Events() {
		switch ev.Name {
		case "reshard":
			reshardSpans++
			if !strings.Contains(ev.Detail, "from=2") || !strings.Contains(ev.Detail, "to=3") {
				t.Errorf("reshard span detail %q", ev.Detail)
			}
		case "reshard.stream":
			streamSpans++
			if !strings.Contains(ev.Detail, "docs=70") {
				t.Errorf("stream span detail %q, want docs=70", ev.Detail)
			}
		}
	}
	if reshardSpans != 1 || streamSpans != 1 {
		t.Errorf("trace holds %d reshard + %d stream spans, want 1 + 1", reshardSpans, streamSpans)
	}
}

// TestReshardPlacesByRange: a reshard re-places every live document on
// shardOf at the new count, and no other shard keeps a copy.
func TestReshardPlacesByRange(t *testing.T) {
	eng, err := Open(reshardOpts(t.TempDir(), 2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	texts := synthTexts(71, 2*shardSpan+100, 20, 5)
	buildCorpus(t, eng, texts)
	eng.Delete(shardSpan + 1)
	if _, err := eng.Reshard(3); err != nil {
		t.Fatal(err)
	}
	requireShardsHoldDocs(t, eng)
	for id := DocID(1); id <= DocID(len(texts)); id++ {
		for i, s := range eng.shards {
			_, ok, err := s.document(id)
			if err != nil {
				t.Fatal(err)
			}
			if want := i == shardOf(id, 3) && id != shardSpan+1; ok != want {
				t.Fatalf("document %d on shard %d: %v, want %v", id, i, ok, want)
			}
		}
	}
}

// TestReshardCommitFailureClosesEngine: when the commit rename fails, the
// engine reports itself closed, every query fails instead of answering
// from no shards, and AddDocument neither panics nor indexes.
func TestReshardCommitFailureClosesEngine(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(reshardOpts(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for range 50 {
		eng.AddDocument("waa wab")
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	// A non-empty commit directory makes the commit rename fail.
	commit := filepath.Join(dir, reshardCommitName)
	if err := os.MkdirAll(filepath.Join(commit, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Reshard(3); err == nil || !strings.Contains(err.Error(), "commit rename") {
		t.Fatalf("Reshard with a blocked commit: err = %v", err)
	}

	requireClosed(t, eng)
}
