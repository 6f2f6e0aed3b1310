package dualindex

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"dualindex/internal/core"
	"dualindex/internal/disk"
	"dualindex/internal/lexer"
	"dualindex/internal/longlist"
	"dualindex/internal/postings"
	"dualindex/internal/vocab"
)

// smallOpts is a geometry small enough that a ~100-document corpus exercises
// bucket evictions, multi-chunk long lists and in-place updates.
func smallOpts(shards int) Options {
	return Options{
		Shards:        shards,
		Buckets:       16,
		BucketSize:    32,
		NumDisks:      2,
		BlocksPerDisk: 2048,
		BlockSize:     64, // 8 postings per block
	}
}

// synthWord names synthetic vocabulary entry i. Purely alphabetic: the
// lexer would split an alphanumeric name into a letter-run and a digit-run.
func synthWord(i int) string {
	return fmt.Sprintf("w%c%c", rune('a'+i/26), rune('a'+i%26))
}

// synthTexts generates a deterministic corpus over a skewed vocabulary
// ("waa", "wab", …), so the same seed always yields the same documents.
func synthTexts(seed int64, n, vocabSize, wordsPerDoc int) []string {
	r := rand.New(rand.NewSource(seed))
	texts := make([]string, n)
	for i := range texts {
		var sb strings.Builder
		for j := 0; j < wordsPerDoc; j++ {
			// Nested Intn skews low word ids frequent, like real text.
			sb.WriteString(synthWord(r.Intn(r.Intn(vocabSize) + 1)))
			sb.WriteByte(' ')
		}
		texts[i] = sb.String()
	}
	return texts
}

// TestSingleShardTraceMatchesCore is the sharding refactor's regression
// gate: a Shards=1 engine must produce byte-for-byte the simulated I/O trace
// and the statistics of the pre-refactor monolithic engine. The reference is
// that engine's exact update sequence — tokenize, assign word ids, buffer,
// sort the batch's words, apply — driven by hand against a bare core.Index.
func TestSingleShardTraceMatchesCore(t *testing.T) {
	opts := smallOpts(1)
	opts.Workers = 1 // serial flush and fetch on both sides
	// Full observability on: instrumentation must not perturb the simulated
	// I/O trace (it never touches the disk array — see observe.go).
	opts.Metrics = true
	opts.TraceBuffer = 256
	opts.SlowQuery = 1 // nanosecond threshold: every query logs
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	pol, err := PolicyBalanced.internal()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.New(core.Config{
		Buckets:      opts.Buckets,
		BucketSize:   opts.BucketSize,
		BlockPosting: int64(opts.BlockSize / longlist.PostingBytes),
		Geometry: disk.Geometry{
			NumDisks:      opts.NumDisks,
			BlocksPerDisk: opts.BlocksPerDisk,
			BlockSize:     opts.BlockSize,
		},
		Policy:       pol,
		Store:        disk.NewMemStore(opts.NumDisks, opts.BlockSize),
		FlushWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	v := vocab.New()
	pending := map[postings.WordID][]postings.DocID{}
	var next postings.DocID
	refAdd := func(text string) {
		next++
		for _, word := range lexer.Tokenize(text, lexer.Options{}) {
			w := v.GetOrAssign(word)
			pending[w] = append(pending[w], next)
		}
	}
	refFlush := func() {
		words := make([]postings.WordID, 0, len(pending))
		for w := range pending {
			words = append(words, w)
		}
		slices.Sort(words)
		updates := make([]core.WordUpdate, 0, len(words))
		for _, w := range words {
			list := postings.FromDocs(pending[w])
			updates = append(updates, core.WordUpdate{Word: w, Count: list.Len(), List: list})
		}
		if _, err := ref.ApplyUpdate(updates); err != nil {
			t.Fatalf("reference flush: %v", err)
		}
		pending = map[postings.WordID][]postings.DocID{}
	}
	refQuery := func(word string) {
		if w, ok := v.Lookup(word); ok {
			if _, err := ref.GetList(w); err != nil {
				t.Fatalf("reference query %q: %v", word, err)
			}
		}
	}

	texts := synthTexts(7, 150, 40, 30)
	queries := []string{synthWord(0), synthWord(1), synthWord(7), synthWord(23)}
	for i, text := range texts {
		eng.AddDocument(text)
		refAdd(text)
		if (i+1)%30 == 0 {
			if _, err := eng.FlushBatch(); err != nil {
				t.Fatal(err)
			}
			refFlush()
			for _, q := range queries {
				if _, err := eng.SearchBoolean(q); err != nil {
					t.Fatal(err)
				}
				refQuery(q)
			}
		}
	}

	engOps := eng.shards[0].index.Array().Trace().Ops()
	refOps := ref.Array().Trace().Ops()
	if len(engOps) != len(refOps) {
		t.Fatalf("trace length: engine %d ops, reference %d ops", len(engOps), len(refOps))
	}
	for i := range engOps {
		if engOps[i] != refOps[i] {
			t.Fatalf("trace op %d: engine %+v, reference %+v", i, engOps[i], refOps[i])
		}
	}

	st := eng.Stats()
	if st.Docs != int64(next) {
		t.Errorf("Docs = %d, want %d", st.Docs, next)
	}
	if st.Words != v.Len() {
		t.Errorf("Words = %d, want %d", st.Words, v.Len())
	}
	if st.Batches != ref.Batches() {
		t.Errorf("Batches = %d, want %d", st.Batches, ref.Batches())
	}
	if st.LongLists != ref.Directory().NumWords() {
		t.Errorf("LongLists = %d, want %d", st.LongLists, ref.Directory().NumWords())
	}
	if st.BucketWords != ref.Buckets().TotalWords() {
		t.Errorf("BucketWords = %d, want %d", st.BucketWords, ref.Buckets().TotalWords())
	}
	if st.Utilization != ref.Directory().Utilization() {
		t.Errorf("Utilization = %v, want %v", st.Utilization, ref.Directory().Utilization())
	}
	if st.AvgReadsPerList != ref.Directory().AvgReadsPerList() {
		t.Errorf("AvgReadsPerList = %v, want %v", st.AvgReadsPerList, ref.Directory().AvgReadsPerList())
	}
	if st.ReadOps != ref.Array().ReadOps() || st.WriteOps != ref.Array().WriteOps() {
		t.Errorf("ops = %d/%d, want %d/%d", st.ReadOps, st.WriteOps, ref.Array().ReadOps(), ref.Array().WriteOps())
	}
	if st.LongLists == 0 {
		t.Error("corpus produced no long lists; the trace comparison is vacuous")
	}
}

// TestShardedMatchesUnsharded feeds the same corpus to a 1-shard and a
// 4-shard engine and checks that query answers agree: boolean results are
// identical, vector results cover the same documents.
func TestShardedMatchesUnsharded(t *testing.T) {
	one, err := Open(smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	four, err := Open(smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer four.Close()

	texts := synthTexts(13, shardSpan+120, 40, 25)
	for i, text := range texts {
		d1 := one.AddDocument(text)
		d4 := four.AddDocument(text)
		if d1 != d4 {
			t.Fatalf("doc %d: ids diverge (%d vs %d)", i, d1, d4)
		}
		if (i+1)%40 == 0 {
			if _, err := one.FlushBatch(); err != nil {
				t.Fatal(err)
			}
			if _, err := four.FlushBatch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := four.Stats().Docs, one.Stats().Docs; got != want {
		t.Fatalf("Docs = %d, want %d", got, want)
	}
	requireShardsHoldDocs(t, four)

	queries := []string{
		"wab",
		"wac and waf",
		"wad or war",
		"wab and not wae",
		"(waa or wab) and wac",
		"wa*",
		"w* and not waa",
		"zebra",
	}
	hits := 0
	for _, q := range queries {
		a, err := one.SearchBoolean(q)
		if err != nil {
			t.Fatalf("%q on 1 shard: %v", q, err)
		}
		b, err := four.SearchBoolean(q)
		if err != nil {
			t.Fatalf("%q on 4 shards: %v", q, err)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%q: 1 shard %v, 4 shards %v", q, a, b)
		}
		hits += len(a)
	}
	if hits == 0 {
		t.Fatal("every query came back empty; the comparison is vacuous")
	}

	// Vector ranking: with k covering the whole collection, both engines
	// must score exactly the documents containing at least one query word
	// (scores may differ — sharded idf uses shard-local frequencies).
	a, err := one.SearchVector("waa wad waj", len(texts))
	if err != nil {
		t.Fatal(err)
	}
	b, err := four.SearchVector("waa wad waj", len(texts))
	if err != nil {
		t.Fatal(err)
	}
	docSet := func(ms []Match) string {
		ds := make([]DocID, len(ms))
		for i, m := range ms {
			ds[i] = m.Doc
		}
		slices.Sort(ds)
		return fmt.Sprint(ds)
	}
	if docSet(a) != docSet(b) {
		t.Errorf("vector doc sets differ:\n1 shard:  %s\n4 shards: %s", docSet(a), docSet(b))
	}
}

// TestShardedCrashReopen is the sharded crash/reopen test: build a 3-shard
// persistent engine, flush, delete, flush again, record query answers and
// stats, close, reopen — every answer must be byte-identical.
func TestShardedCrashReopen(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts(3)
	opts.Dir = dir
	opts.KeepDocuments = true
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	texts := synthTexts(29, shardSpan+60, 30, 20)
	var ids []DocID
	for i, text := range texts {
		if i%10 == 5 {
			text += " needle"
		}
		ids = append(ids, eng.AddDocument(text))
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	requireShardsHoldDocs(t, eng)

	// Delete two documents, a needle holder on shard 0 and one on shard 1,
	// then add documents, which land on shard 1: the next flush checkpoints
	// one deletion with a batch and the other without.
	eng.Delete(ids[5])
	eng.Delete(ids[shardSpan+12])
	for _, text := range synthTexts(31, 12, 30, 20) {
		eng.AddDocument(text)
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}

	type snapshot struct {
		boolean, compound, needle, vectorDocs, doc string
		scores                                     []float64
		docsN                                      int64
		words, batches, long, bucket, deleted      int
		util                                       float64
	}
	capture := func(e *Engine) snapshot {
		var sn snapshot
		res, err := e.SearchBoolean("wab")
		if err != nil {
			t.Fatal(err)
		}
		sn.boolean = fmt.Sprint(res)
		res, err = e.SearchBoolean("wac or (wad and not wae)")
		if err != nil {
			t.Fatal(err)
		}
		sn.compound = fmt.Sprint(res)
		res, err = e.SearchBoolean("needle")
		if err != nil {
			t.Fatal(err)
		}
		sn.needle = fmt.Sprint(res)
		ms, err := e.SearchVector("waa wab needle", 10)
		if err != nil {
			t.Fatal(err)
		}
		var vdocs []DocID
		for _, m := range ms {
			vdocs = append(vdocs, m.Doc)
			sn.scores = append(sn.scores, m.Score)
		}
		sn.vectorDocs = fmt.Sprint(vdocs)
		text, ok, err := e.Document(ids[15])
		if err != nil || !ok {
			t.Fatalf("Document(%d): ok=%v err=%v", ids[15], ok, err)
		}
		sn.doc = text
		st := e.Stats()
		sn.docsN, sn.words, sn.batches = st.Docs, st.Words, st.Batches
		sn.long, sn.bucket, sn.deleted = st.LongLists, st.BucketWords, st.Deleted
		sn.util = st.Utilization
		return sn
	}

	before := capture(eng)
	needleDocs, err := eng.SearchBoolean("needle")
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(needleDocs, ids[5]) {
		t.Fatalf("deleted doc %d still in needle results %v", ids[5], needleDocs)
	}
	if before.deleted != 2 {
		t.Fatalf("Deleted = %d, want 2", before.deleted)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// The sharded on-disk layout: one subdirectory per shard, no flat files.
	for i := 0; i < 3; i++ {
		p := filepath.Join(dir, fmt.Sprintf("shard-%d", i), "disk0.dat")
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("missing %s: %v", p, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "disk0.dat")); err == nil {
		t.Fatal("sharded engine left a flat disk0.dat under Dir")
	}

	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.CheckConsistency(); err != nil {
		t.Fatalf("consistency after reopen: %v", err)
	}
	requireShardsHoldDocs(t, re)
	after := capture(re)
	// Vector scores sum per-word contributions in map iteration order, so
	// they are only reproducible to floating-point rounding; everything else
	// must be byte-identical.
	if len(before.scores) != len(after.scores) {
		t.Fatalf("reopen changed vector result count: %d vs %d", len(before.scores), len(after.scores))
	}
	for i := range before.scores {
		if diff := before.scores[i] - after.scores[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("vector score %d changed: %v vs %v", i, before.scores[i], after.scores[i])
		}
	}
	before.scores, after.scores = nil, nil
	if fmt.Sprintf("%+v", before) != fmt.Sprintf("%+v", after) {
		t.Fatalf("reopen changed answers:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestShardedPendingRecovery checks that unflushed documents of a sharded
// persistent engine are recovered from the per-shard document logs.
func TestShardedPendingRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts(2)
	opts.Dir = dir
	opts.KeepDocuments = true
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The lexer splits letter-runs from digit-runs, so unique marker words
	// must be purely alphabetic.
	uniq := func(i int) string { return "uniq" + string(rune('a'+i)) }
	addFiller(t, eng, shardSpan-2)
	// Documents shardSpan-1 .. shardSpan+3: two pending on shard 0, three
	// on shard 1.
	for i := 0; i < 5; i++ {
		eng.AddDocument("unflushed filler " + uniq(i))
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireShardsHoldDocs(t, re)
	for i, s := range re.shards {
		if docs, _ := s.numPending(); docs == 0 {
			t.Errorf("shard %d recovered no pending documents", i)
		}
	}
	if got := re.PendingDocs(); got != 5 {
		t.Fatalf("PendingDocs after reopen = %d, want 5", got)
	}
	for i := 0; i < 5; i++ {
		docs, err := re.SearchBoolean(uniq(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := DocID(shardSpan - 1 + i); len(docs) != 1 || docs[0] != want {
			t.Fatalf("recovered doc search %s = %v, want [%d]", uniq(i), docs, want)
		}
	}
	if next := re.AddDocument("fresh"); next != shardSpan+4 {
		t.Fatalf("AddDocument after reopen = %d, want %d", next, shardSpan+4)
	}
	if _, err := re.FlushBatch(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushBatchAggregatesShards pins satellite semantics: the BatchStats a
// sharded flush returns are the sums over every shard's batch, verified
// against the flush span and phase spans each shard records.
func TestFlushBatchAggregatesShards(t *testing.T) {
	opts := smallOpts(4)
	opts.TraceBuffer = 1024
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	texts := synthTexts(17, shardSpan+40, 30, 20)
	for _, text := range texts {
		eng.AddDocument(text)
	}
	st, err := eng.FlushBatch()
	if err != nil {
		t.Fatal(err)
	}
	requireShardsHoldDocs(t, eng)
	if st.Docs != len(texts) {
		t.Errorf("Docs = %d, want %d", st.Docs, len(texts))
	}

	var want BatchStats
	busy := map[string]bool{}
	phases := map[string]*time.Duration{
		"flush.plan":         &want.Phases.Plan,
		"flush.long_apply":   &want.Phases.LongApply,
		"flush.bucket_flush": &want.Phases.BucketFlush,
		"flush.checkpoint":   &want.Phases.Checkpoint,
		"flush.release":      &want.Phases.Release,
	}
	for _, ev := range eng.Tracer().Events() {
		if d, ok := phases[ev.Name]; ok {
			*d += ev.Dur
			continue
		}
		if ev.Name != "flush" {
			continue
		}
		busy[ev.Scope] = true
		var b BatchStats
		if _, err := fmt.Sscanf(ev.Detail, "docs=%d words=%d postings=%d evictions=%d r=%d w=%d",
			&b.Docs, &b.Words, &b.Postings, &b.Evictions, &b.ReadOps, &b.WriteOps); err != nil {
			t.Fatalf("%s flush span %q: %v", ev.Scope, ev.Detail, err)
		}
		want = want.add(b)
	}
	if len(busy) < 2 {
		t.Fatalf("only %d shards flushed documents; aggregation untested", len(busy))
	}
	if st != want {
		t.Errorf("FlushBatch stats = %+v, want per-shard sums %+v", st, want)
	}
	if st.Postings == 0 || st.WriteOps == 0 {
		t.Errorf("degenerate batch stats %+v", st)
	}
}

// TestShardRouterStable pins range placement: identifiers 1..1024 on shard
// 0, 1025..2048 on shard 1, and so on, wrapping over the shard count; 0 and
// every identifier of a single-shard engine on shard 0.
func TestShardRouterStable(t *testing.T) {
	cases := []struct {
		doc  DocID
		n    int
		want int
	}{
		{0, 1, 0}, {0, 3, 0},
		{1, 1, 0}, {5000, 1, 0},
		{1, 2, 0}, {1024, 2, 0}, {1025, 2, 1}, {2048, 2, 1}, {2049, 2, 0},
		{1, 3, 0}, {1025, 3, 1}, {2049, 3, 2}, {3072, 3, 2}, {3073, 3, 0},
		{4096, 4, 3}, {4097, 4, 0},
	}
	for _, c := range cases {
		if got := shardOf(c.doc, c.n); got != c.want {
			t.Errorf("shardOf(%d, %d) = %d, want %d", c.doc, c.n, got, c.want)
		}
	}
}

// TestBatchInOneSpanWritesOneShard: a flush batch whose identifiers lie in
// one span updates one shard's lists, so only that shard's write counters
// move — a batch costs what it costs the unsharded index.
func TestBatchInOneSpanWritesOneShard(t *testing.T) {
	eng, err := Open(smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	writes := func() [2]int64 {
		st := eng.ShardStats()
		return [2]int64{st[0].WriteOps + st[0].WriteBlocks, st[1].WriteOps + st[1].WriteBlocks}
	}
	texts := synthTexts(19, shardSpan+100, 25, 10)
	for i, batch := range [][]string{texts[:shardSpan], texts[shardSpan:]} {
		before := writes()
		buildCorpus(t, eng, batch)
		after := writes()
		if after[i] == before[i] || after[1-i] != before[1-i] {
			t.Errorf("batch %d on shard %d moved the write counters from %v to %v", i, i, before, after)
		}
	}
}

// addFiller adds n documents of filler text, which no probe query
// matches, and flushes them. Padding a corpus with just under shardSpan
// filler documents puts the test's own documents across the boundary of
// shard 0's span.
func addFiller(t *testing.T, eng *Engine, n int) {
	t.Helper()
	for range n {
		eng.AddDocument("filler text")
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
}

// requireShardsHoldDocs fails the test unless at least two of eng's shards
// hold documents. Range placement keeps identifiers 1..1024 on shard 0, so
// a sharded test over fewer documents would silently test one shard.
func requireShardsHoldDocs(t *testing.T, eng *Engine) {
	t.Helper()
	busy := 0
	for _, st := range eng.ShardStats() {
		if st.Words > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("%d of %d shards hold documents; the test needs at least two", busy, len(eng.ShardStats()))
	}
}

// TestShardLayoutMismatch: an index must be reopened with the shard count it
// was built with — placement depends on it.
func TestShardLayoutMismatch(t *testing.T) {
	if _, err := Open(Options{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}

	dir := t.TempDir()
	opts := smallOpts(2)
	opts.Dir = dir
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.AddDocument("some words to index")
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 3} {
		bad := opts
		bad.Shards = shards
		if _, err := Open(bad); err == nil {
			t.Errorf("2-shard index reopened with Shards=%d", shards)
		}
	}
	re, err := Open(opts)
	if err != nil {
		t.Fatalf("matching reopen: %v", err)
	}
	re.Close()

	flatDir := t.TempDir()
	fopts := smallOpts(1)
	fopts.Dir = flatDir
	feng, err := Open(fopts)
	if err != nil {
		t.Fatal(err)
	}
	feng.AddDocument("flat layout")
	if _, err := feng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	feng.Close()
	fopts.Shards = 4
	if _, err := Open(fopts); err == nil {
		t.Error("flat single-shard index reopened with Shards=4")
	}
}

// TestPositionalSharded runs the candidate-verification queries across
// shards and checks them against the unsharded answers.
func TestPositionalSharded(t *testing.T) {
	mk := func(shards int) *Engine {
		opts := smallOpts(shards)
		opts.KeepDocuments = true
		e, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	one, three := mk(1), mk(3)
	defer one.Close()
	defer three.Close()

	corpus := []string{
		"the quick brown fox jumps over the lazy dog",
		"a brown dog and a quick fox",
		"quick brown foxes are rare",
		"the fox was quick and brown",
		"lazy brown fox naps",
		"quick silver brown bear",
		"dogs chase the quick brown fox daily",
		"nothing relevant here at all",
	}
	// Filler first, so the corpus straddles the boundary of shard 0's span.
	addFiller(t, one, shardSpan-len(corpus)/2)
	addFiller(t, three, shardSpan-len(corpus)/2)
	for _, text := range corpus {
		one.AddDocument(text)
		three.AddDocument(text)
	}
	if _, err := one.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if _, err := three.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	requireShardsHoldDocs(t, three)

	pa, err := one.SearchPhrase("quick brown fox")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := three.SearchPhrase("quick brown fox")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(pa) != fmt.Sprint(pb) || len(pa) == 0 {
		t.Errorf("phrase: 1 shard %v, 3 shards %v", pa, pb)
	}

	na, err := one.SearchBoolean("fox near/4 dog")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := three.SearchBoolean("fox near/4 dog")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(na) != fmt.Sprint(nb) || len(na) == 0 {
		t.Errorf("near: 1 shard %v, 3 shards %v", na, nb)
	}
}
