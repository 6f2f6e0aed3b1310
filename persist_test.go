package dualindex

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dualindex/internal/manifest"
)

// persistDir builds a small persistent index at the given shard count and
// closes it, returning its directory. A sharded index gets a span more
// documents, so that at least two of its shards hold some.
func persistDir(t *testing.T, shards int) string {
	t.Helper()
	dir := t.TempDir()
	opts := smallOpts(shards)
	opts.Dir = dir
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	n := 40
	if shards > 1 {
		n += shardSpan
	}
	for _, text := range synthTexts(71, n, 25, 15) {
		eng.AddDocument(text)
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if shards > 1 {
		requireShardsHoldDocs(t, eng)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestOpenCorruptManifest pins the corrupt-manifest path: Open must fail
// with a descriptive error naming the file, never panic, and never
// misreport the index as fresh.
func TestOpenCorruptManifest(t *testing.T) {
	dir := persistDir(t, 2)
	if err := os.WriteFile(manifest.Path(dir), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := smallOpts(0)
	opts.Dir = dir
	_, err := Open(opts)
	if err == nil {
		t.Fatal("Open accepted a corrupt manifest")
	}
	if !strings.Contains(err.Error(), "corrupt") || !strings.Contains(err.Error(), manifest.FileName) {
		t.Errorf("corrupt-manifest error %q should name the file and the corruption", err)
	}

	// An invalid-but-parseable manifest is refused too.
	if err := os.WriteFile(manifest.Path(dir), []byte(`{"version":3,"shards":0,"backend":"file","codec":"raw"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); err == nil {
		t.Error("Open accepted a manifest with zero shards")
	}
}

// TestOpenPartialIndex pins the missing-shard path: a manifest that
// promises shards whose files are gone must produce a descriptive error
// instead of silently reopening the missing shard empty (which would lose
// every document placed on it).
func TestOpenPartialIndex(t *testing.T) {
	dir := persistDir(t, 3)
	if err := os.RemoveAll(filepath.Join(dir, "shard-1")); err != nil {
		t.Fatal(err)
	}
	opts := smallOpts(0)
	opts.Dir = dir
	_, err := Open(opts)
	if err == nil {
		t.Fatal("Open accepted an index missing a shard directory")
	}
	for _, want := range []string{"partial", "shard 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("partial-index error %q should mention %q", err, want)
		}
	}
}

// dirImage hashes every file under dir by its path relative to dir, so a
// test can assert that a refused Open left the directory byte-identical.
func dirImage(t *testing.T, dir string) map[string][sha256.Size]byte {
	t.Helper()
	files := map[string][sha256.Size]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files[rel] = sha256.Sum256(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// openRefused opens dir adopting whatever it records, and requires a
// refusal whose error names dir and contains every want, with every file
// in dir byte-identical afterwards.
func openRefused(t *testing.T, dir string, want ...string) {
	t.Helper()
	opts := smallOpts(0)
	opts.Dir = dir
	openRefusedWith(t, opts, want...)
}

// openRefusedWith is openRefused under the given options, whose Dir names
// the directory.
func openRefusedWith(t *testing.T, opts Options, want ...string) {
	t.Helper()
	dir := opts.Dir
	before := dirImage(t, dir)
	eng, err := Open(opts)
	if err == nil {
		eng.Close()
		t.Fatalf("Open accepted %s", dir)
	}
	for _, w := range append([]string{dir}, want...) {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("refusal %q should contain %q", err, w)
		}
	}
	if after := dirImage(t, dir); !maps.Equal(after, before) {
		t.Errorf("refused Open changed the directory:\n before %v\n after  %v", before, after)
	}
}

// TestOpenLegacyLayoutRefused: a directory that holds index files but no
// manifest — built before manifests existed, or left by a first Open that
// never returned — is refused untouched rather than guessed at. An empty or
// absent directory is still a fresh index.
func TestOpenLegacyLayoutRefused(t *testing.T) {
	for _, shards := range []int{1, 3} {
		dir := persistDir(t, shards)
		if err := os.Remove(manifest.Path(dir)); err != nil {
			t.Fatal(err)
		}
		openRefused(t, dir, "no "+manifest.FileName, "delete the directory")
	}
	for _, dir := range []string{t.TempDir(), filepath.Join(t.TempDir(), "absent")} {
		opts := smallOpts(0)
		opts.Dir = dir
		eng, err := Open(opts)
		if err != nil {
			t.Fatalf("fresh directory %s: %v", dir, err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenVersion1ManifestRefused: manifests of versions 1 and 2, which no
// current code writes, are refused untouched. Version 2 named a document
// router, which may have placed documents by hash or round-robin, so it is
// not read under range placement.
func TestOpenVersion1ManifestRefused(t *testing.T) {
	for version, body := range map[int]string{
		1: `{"version":1,"shards":2,"routing":"hash"}`,
		2: `{"version":2,"shards":2,"routing":"hash","backend":"file","codec":"raw"}`,
	} {
		dir := persistDir(t, 2)
		if err := os.WriteFile(manifest.Path(dir), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		openRefused(t, dir, fmt.Sprintf("format version %d predates", version), "rebuild the index")
	}
}

// TestOpenOldSuperblockRefused: a checkpoint whose superblock is version 1,
// 2, 3 or 4 is refused untouched, naming the shard's directory.
func TestOpenOldSuperblockRefused(t *testing.T) {
	for _, version := range []byte{1, 2, 3, 4} {
		dir := persistDir(t, 1)
		setSuperblockVersion(t, filepath.Join(dir, "disk0.dat"), version)
		openRefused(t, dir, fmt.Sprintf("superblock version %d predates", version), "rebuild the index")
	}
}

// TestOpenRefusedKeepsTornDocLog: a refused Open leaves every shard's
// document log as it found it, torn tail included, even in a shard that
// opened before another shard's refusal. Shard 0's log ends in a one-byte
// partial record header and shard 1's superblock is version 2.
func TestOpenRefusedKeepsTornDocLog(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts(2)
	opts.Dir = dir
	opts.KeepDocuments = true
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	buildCorpus(t, eng, synthTexts(71, shardSpan+40, 25, 15))
	requireShardsHoldDocs(t, eng)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.OpenFile(filepath.Join(dir, "shard-0", "docs.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Write([]byte{0x80}); err != nil { // an unterminated id varint
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	setSuperblockVersion(t, filepath.Join(dir, "shard-1", "disk0.dat"), 2)
	for _, workers := range []int{1, 2} {
		opts := smallOpts(0)
		opts.Dir = dir
		opts.KeepDocuments = true
		opts.Workers = workers
		openRefusedWith(t, opts, "shard 1", "superblock version 2 predates")
	}
}

// setSuperblockVersion rewrites the version of the superblock that opens
// the disk file at path, which must be version 5.
func setSuperblockVersion(t *testing.T, path string, version byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The superblock opens disk 0: the magic's varint, then the version's,
	// which is one byte.
	_, n := binary.Uvarint(data)
	if n <= 0 || data[n] != 5 {
		t.Fatalf("%s does not open with a version-5 superblock", path)
	}
	data[n] = version
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenManifestMismatch pins the reconcile errors: non-zero options that
// contradict the manifest are refused with errors that name the recorded
// value and the fix.
func TestOpenManifestMismatch(t *testing.T) {
	dir := persistDir(t, 2)

	opts := smallOpts(4)
	opts.Dir = dir
	if _, err := Open(opts); err == nil || !strings.Contains(err.Error(), "holds a 2-shard index") {
		t.Errorf("shard-count mismatch: err = %v", err)
	}
}

// TestDocIDNotReusedAfterSweepReopen: a swept document's identifier stays
// spent across a reopen, and ranked scores do not move. Recomputing the
// high-water mark from the surviving postings handed a swept trailing
// document's identifier out again and shrank the idf collection size; the
// checkpoint now carries the mark.
func TestDocIDNotReusedAfterSweepReopen(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := smallOpts(shards)
			opts.Dir = t.TempDir()
			eng, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			// On two shards, the three documents straddle the boundary of
			// shard 0's span: the swept one is shard 1's newest.
			lead := 0
			if shards > 1 {
				lead = shardSpan - 1
				addFiller(t, eng, lead)
			}
			buildCorpus(t, eng, []string{"alpha beta", "beta gamma", "gamma alpha"})
			if shards > 1 {
				requireShardsHoldDocs(t, eng)
			}
			eng.Delete(DocID(lead + 3))
			if err := eng.Sweep(); err != nil {
				t.Fatal(err)
			}
			const bag = "alpha beta gamma"
			before, err := eng.Query(bag, 10)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			zero := opts
			zero.Shards = 0
			re, err := Open(zero)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			after, err := re.Query(bag, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(after, before) {
				t.Errorf("ranked answer moved across reopen:\n before %v\n after  %v", before, after)
			}
			if id, want := re.AddDocument("delta"), DocID(lead+4); id != want {
				t.Fatalf("AddDocument after sweep and reopen = %d, want %d (%d was swept, not free)", id, want, want-1)
			}
		})
	}
}

// TestReopenRecoversUnflushedDocsAndCounts: a cold open reads only the
// documents newer than the checkpoint, yet resumes exactly where Close left
// off — those documents pending and searchable, the indexed count and the
// dead fraction unchanged. The newest checkpointed document is deleted, so
// only the checkpoint's high-water mark says where the indexed documents
// end. (Deletions become durable at the next flush that applies documents,
// so the deletes precede the second flush.)
func TestReopenRecoversUnflushedDocsAndCounts(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := smallOpts(shards)
			opts.Dir = t.TempDir()
			opts.KeepDocuments = true
			eng, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			// On two shards, filler puts documents lead+41.. on shard 1:
			// the deleted newest checkpointed document, lead+50, and the
			// pending ones.
			lead := 0
			if shards > 1 {
				lead = shardSpan - 40
				addFiller(t, eng, lead)
			}
			texts := synthTexts(83, 60, 25, 15)
			buildCorpus(t, eng, texts[:40])
			eng.Delete(DocID(lead + 3))
			eng.Delete(DocID(lead + 17))
			for _, text := range texts[40:50] {
				eng.AddDocument(text)
			}
			eng.Delete(DocID(lead + 50))
			if _, err := eng.FlushBatch(); err != nil {
				t.Fatal(err)
			}
			for _, text := range texts[50:] {
				eng.AddDocument(text)
			}
			eng.AddDocument("unflushed zebra")
			if shards > 1 {
				requireShardsHoldDocs(t, eng)
			}
			before := eng.Stats()
			want, err := eng.SearchBoolean("wa* or zebra")
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			zero := opts
			zero.Shards = 0
			re, err := Open(zero)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			after := re.Stats()
			if after.DocsIndexed != before.DocsIndexed || after.DeadFraction != before.DeadFraction ||
				after.Deleted != before.Deleted || after.PendingDocs != before.PendingDocs {
				t.Fatalf("reopened stats: indexed %d dead %v deleted %d pending %d; before close %d %v %d %d",
					after.DocsIndexed, after.DeadFraction, after.Deleted, after.PendingDocs,
					before.DocsIndexed, before.DeadFraction, before.Deleted, before.PendingDocs)
			}
			if got, err := re.SearchBoolean("wa* or zebra"); err != nil || !slices.Equal(got, want) {
				t.Fatalf("reopened answer %v, %v; want %v", got, err, want)
			}
			if _, err := re.FlushBatch(); err != nil {
				t.Fatal(err)
			}
			if err := re.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			if got, err := re.SearchBoolean("zebra"); err != nil || !slices.Equal(got, []DocID{DocID(lead + 61)}) {
				t.Fatalf("recovered document after flush: %v, %v", got, err)
			}
			if id := re.AddDocument("fresh"); id != DocID(lead+62) {
				t.Fatalf("AddDocument after reopen = %d, want %d", id, lead+62)
			}
		})
	}
}

// statVocab returns the FileInfo of a shard directory's vocabulary file.
func statVocab(t *testing.T, shardDir string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(filepath.Join(shardDir, "vocab.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// TestReadOnlySessionKeepsVocab: an Open, query, Close session that assigns
// no word leaves every shard's vocabulary file in place — the same file,
// not a rewritten copy.
func TestReadOnlySessionKeepsVocab(t *testing.T) {
	for _, shards := range []int{1, 2} {
		dir := persistDir(t, shards)
		before := make([]os.FileInfo, shards)
		for i := range before {
			before[i] = statVocab(t, shardDir(dir, i, shards))
		}
		opts := smallOpts(0)
		opts.Dir = dir
		eng, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.SearchBoolean("waa or wab"); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		for i, fi := range before {
			if !os.SameFile(fi, statVocab(t, shardDir(dir, i, shards))) {
				t.Errorf("%d shards: a read-only session replaced shard %d's vocab.txt", shards, i)
			}
		}
	}
}

// duringCommit runs FlushBatch on a one-shard engine and calls fn while the
// flush is stopped between its checkpoint and its return, where a crash
// would leave the directory. The test holds the shard's read lock across
// the flush's first write lock, which publishes the snapshot, and takes it
// again before the flush can retire that snapshot. fn runs once the flush
// waits for the retiring write lock: the batch is applied, its superblock
// written and synced.
func duringCommit(t *testing.T, eng *Engine, fn func()) {
	t.Helper()
	s := eng.shards[0]
	s.mu.RLock()
	done := make(chan error, 1)
	go func() {
		_, err := eng.FlushBatch()
		done <- err
	}()
	awaitWriter(s) // the flush waits to publish
	s.mu.RUnlock()
	// A reader that arrives while a writer waits is let in when that
	// writer unlocks, ahead of any later writer.
	s.mu.RLock()
	if s.snap == nil {
		s.mu.RUnlock()
		t.Fatalf("no snapshot published after the flush's first write lock (flush: %v)", <-done)
	}
	awaitWriter(s) // the flush waits to retire
	fn()
	s.mu.RUnlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// awaitWriter returns once a writer waits for s.mu, which the caller holds
// for reading: a waiting writer makes a further read lock fail.
func awaitWriter(s *shard) {
	for s.mu.TryRLock() {
		s.mu.RUnlock()
		runtime.Gosched()
	}
}

// TestVocabCrashAfterCommit: a copy of a two-batch file index taken once
// the second batch's superblock is on disk, before its flush returns,
// reopens with every word at its own identifier. A word the second batch
// added still finds its document, and a word added after the reopen finds
// only its own.
func TestVocabCrashAfterCommit(t *testing.T) {
	opts := smallOpts(1)
	opts.Dir = t.TempDir()
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.AddDocument("alpha beta gamma")
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	eng.AddDocument("delta epsilon")
	crash := opts
	crash.Dir = t.TempDir()
	duringCommit(t, eng, func() { copyTree(t, crash.Dir, opts.Dir) })

	re, err := Open(crash)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	want := map[string][]DocID{"alpha": {1}, "gamma": {1}, "delta": {2}, "epsilon": {2}}
	check := func(stage string) {
		t.Helper()
		for word, docs := range want {
			if got, err := re.SearchBoolean(word); err != nil || !slices.Equal(got, docs) {
				t.Errorf("%s: %s = %v, %v; want %v", stage, word, got, err, docs)
			}
		}
	}
	check("reopened crash image")
	want["omega"] = []DocID{re.AddDocument("omega")}
	if _, err := re.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	check("after a new word")
	if err := re.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesShortVocab: a checkpointed shard whose vocabulary log is
// missing, or holds fewer words than its superblock counts, cannot name the
// words of its lists. Open refuses it, naming the log, and writes nothing.
func TestOpenRefusesShortVocab(t *testing.T) {
	breaks := map[string]func(t *testing.T, path string){
		"missing": func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		},
		"short": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:bytes.IndexByte(data, '\n')+1], 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, breakLog := range breaks {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				dir := persistDir(t, shards)
				path := filepath.Join(shardDir(dir, shards-1, shards), "vocab.txt")
				breakLog(t, path)
				openRefused(t, dir, path, "checkpoint counts")
			})
		}
	}
}

// TestFlushVocabFailureCommitsNothing: a FlushBatch whose vocabulary append
// fails commits nothing. The batch count is unchanged, the batch's
// documents are still pending, and a retried flush leaves the directory a
// flush without the fault leaves.
func TestFlushVocabFailureCommitsNothing(t *testing.T) {
	engines := make([]*Engine, 2) // faulted, reference
	for i := range engines {
		opts := smallOpts(1)
		opts.Dir = t.TempDir()
		eng, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		buildCorpus(t, eng, synthTexts(7, 40, 25, 12))
		// A wider vocabulary: the second batch assigns new words.
		for _, text := range synthTexts(8, 40, 60, 12) {
			eng.AddDocument(text)
		}
		engines[i] = eng
	}
	eng, ref := engines[0], engines[1]
	// A directory where the log was makes the append fail.
	path := filepath.Join(eng.opts.Dir, "vocab.txt")
	if err := os.Rename(path, path+".saved"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	batches := eng.Stats().Batches
	if _, err := eng.FlushBatch(); err == nil {
		t.Fatal("FlushBatch succeeded without its vocabulary log")
	}
	if got := eng.Stats().Batches; got != batches {
		t.Errorf("the failed flush counted a batch: %d, want %d", got, batches)
	}
	if got := eng.PendingDocs(); got != 40 {
		t.Errorf("%d documents pending after the failed flush, want 40", got)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".saved", path); err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		if _, err := e.FlushBatch(); err != nil {
			t.Fatal(err)
		}
	}
	sameAnswers(t, eng, ref)
	for _, e := range engines {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := dirImage(t, eng.opts.Dir), dirImage(t, ref.opts.Dir); !maps.Equal(got, want) {
		t.Errorf("retried flush left\n %v\nwant\n %v", got, want)
	}
}

// TestRefusedOpenKeepsOpenedShards: when one shard of a 2-shard index is
// refused (its superblock predates this engine), the shard that did open
// is closed without rewriting anything, its vocabulary file included.
func TestRefusedOpenKeepsOpenedShards(t *testing.T) {
	dir := persistDir(t, 2)
	path := filepath.Join(dir, "shard-1", "disk0.dat")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, n := binary.Uvarint(data)
	if n <= 0 || data[n] != 5 {
		t.Fatalf("disk0.dat does not open with a version-5 superblock")
	}
	data[n] = 2
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	vocab0 := statVocab(t, filepath.Join(dir, "shard-0"))
	openRefused(t, dir, "shard 1", "superblock version 2 predates")
	if !os.SameFile(vocab0, statVocab(t, filepath.Join(dir, "shard-0"))) {
		t.Error("a refused Open replaced the opened shard 0's vocab.txt")
	}
}

// TestOpenFailedShardJoinsAndCloses: a 3-shard index whose last shard
// cannot be read fails to open naming that shard, joins every goroutine the
// concurrent open started, and leaves every file as it was — whether the
// failure is in the checkpoint or in the vocabulary, which load alongside
// the other shards and each other.
func TestOpenFailedShardJoinsAndCloses(t *testing.T) {
	breaks := map[string]func(t *testing.T, shardDir string){
		"checkpoint": func(t *testing.T, shardDir string) {
			path := filepath.Join(shardDir, "disk0.dat")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			copy(data, []byte{0xde, 0xad, 0xbe, 0xef}) // not the superblock magic
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"vocabulary": func(t *testing.T, shardDir string) {
			path := filepath.Join(shardDir, "vocab.txt")
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(path, 0o755); err != nil { // opens, but cannot be read
				t.Fatal(err)
			}
		},
	}
	for name, breakShard := range breaks {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := reshardOpts(dir, 3)
			eng, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			// Enough documents that shard 2 holds some.
			buildCorpus(t, eng, synthTexts(5, 2*shardSpan+90, 25, 12))
			requireShardsHoldDocs(t, eng)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			breakShard(t, filepath.Join(dir, "shard-2"))
			baseline := len(engineGoroutines())
			before := dirImage(t, dir)
			if eng, err := Open(opts); err == nil {
				eng.Close()
				t.Fatal("Open accepted an index with an unreadable shard")
			} else if !strings.Contains(err.Error(), "shard 2") {
				t.Errorf("error %q should name shard 2", err)
			}
			assertNoEngineGoroutines(t, baseline)
			if after := dirImage(t, dir); !maps.Equal(after, before) {
				t.Errorf("failed Open changed the directory:\n before %v\n after  %v", before, after)
			}
		})
	}
}

// TestReopenRecoversEveryShard: a 3-shard index closed with unflushed
// documents in every shard's log reopens — its shards recovering
// concurrently — with the answers and the next document identifier of an
// engine that never closed.
func TestReopenRecoversEveryShard(t *testing.T) {
	dir := t.TempDir()
	opts := reshardOpts(dir, 3)
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Open(reshardOpts("", 3))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	// The unflushed documents span all three shards.
	texts := synthTexts(9, 2*shardSpan+120, 25, 12)
	for _, e := range []*Engine{eng, ref} {
		buildCorpus(t, e, texts[:shardSpan-80])
		for _, text := range texts[shardSpan-80:] {
			e.AddDocument(text)
		}
	}
	for i, s := range eng.shards {
		if docs, _ := s.numPending(); docs == 0 {
			t.Fatalf("shard %d has no unflushed documents", i)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(reshardOpts(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, want := re.PendingDocs(), ref.PendingDocs(); got != want {
		t.Errorf("reopened with %d pending documents, want %d", got, want)
	}
	sameAnswers(t, re, ref)
	if got, want := re.AddDocument(texts[0]), ref.AddDocument(texts[0]); got != want {
		t.Errorf("next document identifier %d after reopen, want %d", got, want)
	}
}

// BenchmarkOpen measures a cold open of a 2-shard file index plus its
// first query — the restart cost the checkpoint design bounds — on the
// default geometry, so each shard reads a full bucket region:
//
//	go test -run '^$' -bench Open -benchmem
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	opts := Options{Dir: dir, Shards: 2, KeepDocuments: true, CacheBlocks: 4096}
	eng, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, text := range synthTexts(3, 2000, 400, 30) {
		eng.AddDocument(text)
	}
	if _, err := eng.FlushBatch(); err != nil {
		b.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	opts.Shards = 0
	b.ResetTimer()
	for range b.N {
		eng, err := Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.SearchVector("waa wab wac", 10); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
