package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dualindex/internal/directory"
	"dualindex/internal/disk"
	"dualindex/internal/longlist"
	"dualindex/internal/postings"
)

// codecConfig is storeConfig with a compressing codec; the shared MemStore
// lets tests close and reopen.
func codecConfig(id postings.CodecID, ms *disk.MemStore) Config {
	cfg := storeConfig()
	cfg.Store = ms
	cfg.Codec = id
	return cfg
}

func codecStore() *disk.MemStore { return disk.NewMemStore(2, 256) }

// codecBatches deterministically builds update batches that exercise every
// path: bucket fills, evictions to long lists, repeated long-word appends
// (in-place and overflowing).
func codecBatches(seed int64, batches int) [][]WordUpdate {
	rng := rand.New(rand.NewSource(seed))
	nextDoc := postings.DocID(0)
	out := make([][]WordUpdate, batches)
	for b := range out {
		var us []WordUpdate
		// A handful of hot words with big updates (long lists, appends).
		for w := postings.WordID(0); w < 5; w++ {
			n := 40 + rng.Intn(200)
			docs := make([]postings.DocID, n)
			for i := range docs {
				docs[i] = nextDoc
				nextDoc++
			}
			us = append(us, upd(w, docs...))
		}
		// Warm words with small updates (in-place candidates once long).
		for w := postings.WordID(10); w < 25; w++ {
			n := 1 + rng.Intn(6)
			docs := make([]postings.DocID, n)
			for i := range docs {
				docs[i] = nextDoc
				nextDoc++
			}
			us = append(us, upd(w, docs...))
		}
		out[b] = us
	}
	return out
}

func eachCoreCodec(t *testing.T, f func(t *testing.T, id postings.CodecID)) {
	for _, id := range []postings.CodecID{postings.CodecVarint, postings.CodecGolomb} {
		t.Run(id.String(), func(t *testing.T) { f(t, id) })
	}
}

// diffPolicies are the long-list policies the differential test crosses
// with every codec: the four named ones, and whole style
// without in-place updates, which reads every old chunk on each append.
var diffPolicies = []struct {
	name   string
	policy longlist.Policy
}{
	{"whole-rec", longlist.NewRecommended()},
	{"whole-0", longlist.Policy{Style: longlist.StyleWhole, Limit: longlist.LimitZero}},
	{"new", longlist.Policy{Style: longlist.StyleNew, Alloc: longlist.AllocConstant, K: 50, Limit: longlist.LimitZ}},
	{"fill", longlist.Policy{Style: longlist.StyleFill, Alloc: longlist.AllocConstant, ExtentBlocks: 2}},
	{"adaptive", longlist.Policy{Style: longlist.StyleWhole, Alloc: longlist.AllocAdaptive, K: 2, Limit: longlist.LimitZ}},
}

// docRange returns the document identifiers lo..hi inclusive.
func docRange(lo, hi postings.DocID) []postings.DocID {
	var docs []postings.DocID
	for d := lo; d <= hi; d++ {
		docs = append(docs, d)
	}
	return docs
}

// TestCodecMatchesRaw is the differential test of the flush path. Each
// codec (raw included), under every policy of diffPolicies, runs beside a
// raw reference that applies the same batches. After every batch, after a
// sweep, after a bucket rebalance and after a reopen, every word must read
// back exactly as in the reference and every index must pass
// CheckConsistency. The codecs must also allocate fewer long-list blocks
// than raw.
func TestCodecMatchesRaw(t *testing.T) {
	shapes := []diffShape{
		{"mixed", 64, 256, codecBatches(42, 6), true},
		// Word 5 is short after batch 1. In batch 2 word 1's add evicts it
		// from the only bucket, and word 5's own update follows in the same
		// batch: it reads blocks the eviction wrote moments earlier.
		{"evict-then-update", 1, 64, [][]WordUpdate{
			{upd(5, docRange(1, 40)...)},
			{upd(1, docRange(41, 70)...), upd(5, docRange(71, 73)...)},
		}, false},
	}
	for _, id := range []postings.CodecID{postings.CodecRaw, postings.CodecVarint, postings.CodecGolomb} {
		t.Run(id.String(), func(t *testing.T) {
			for _, dp := range diffPolicies {
				t.Run(dp.name, func(t *testing.T) {
					for _, sh := range shapes {
						t.Run(sh.name, func(t *testing.T) { differential(t, id, dp.policy, sh) })
					}
				})
			}
		})
	}
}

// diffShape is one batch sequence of TestCodecMatchesRaw, with the bucket
// geometry it runs on. compresses marks sequences with lists long enough
// for a codec to save blocks.
type diffShape struct {
	name                string
	buckets, bucketSize int
	batches             [][]WordUpdate
	compresses          bool
}

// differential runs TestCodecMatchesRaw's comparison for one codec, policy
// and shape.
func differential(t *testing.T, id postings.CodecID, p longlist.Policy, sh diffShape) {
	words := map[postings.WordID]bool{}
	var maxDoc postings.DocID
	for _, us := range sh.batches {
		for _, u := range us {
			words[u.Word] = true
			maxDoc = max(maxDoc, u.List.MaxDoc())
		}
	}
	open := func(codec postings.CodecID, workers int) *Index {
		cfg := codecConfig(codec, codecStore())
		cfg.Buckets, cfg.BucketSize = sh.buckets, sh.bucketSize
		cfg.Policy = p
		cfg.FlushWorkers = workers
		ix, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	// The cell reopens reading the checkpoint's regions four runs at a
	// time, the reference one at a time.
	ref, cell := open(postings.CodecRaw, 1), open(id, 4)
	// each runs op on the reference and on the cell, then compares them.
	each := func(stage string, op func(ix *Index) error) {
		t.Helper()
		if err := op(ref); err != nil {
			t.Fatalf("%s: reference: %v", stage, err)
		}
		if err := ref.CheckConsistency(); err != nil {
			t.Fatalf("%s: reference inconsistent: %v", stage, err)
		}
		if err := op(cell); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if err := cell.CheckConsistency(); err != nil {
			t.Fatalf("%s: inconsistent: %v", stage, err)
		}
		for w := range words {
			want, err := ref.GetList(w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cell.GetList(w)
			if err != nil {
				t.Fatalf("%s: GetList(%d): %v", stage, w, err)
			}
			if !slices.Equal(got.Docs(), want.Docs()) {
				t.Fatalf("%s: word %d: %d postings, reference %d", stage, w, got.Len(), want.Len())
			}
		}
	}
	for i, us := range sh.batches {
		each(fmt.Sprintf("batch %d", i), func(ix *Index) error {
			_, err := ix.ApplyUpdate(us)
			return err
		})
	}
	if id != postings.CodecRaw && sh.compresses {
		if got, raw := allocatedBlocks(cell.dir), allocatedBlocks(ref.dir); got >= raw {
			t.Errorf("codec allocates %d blocks, raw %d — no win", got, raw)
		}
	}
	each("sweep", func(ix *Index) error {
		for d := postings.DocID(0); d <= maxDoc; d += 3 {
			ix.Delete(d)
		}
		return ix.Sweep()
	})
	each("rebalance", func(ix *Index) error {
		return ix.RebalanceBuckets(sh.buckets, sh.bucketSize/4)
	})
	each("reopen", func(ix *Index) error {
		re, err := Open(ix.cfg)
		if err == nil {
			*ix = *re
		}
		return err
	})
}

// TestCodecRestart checkpoints a codec index, reopens it from the store, and
// requires the restored index to answer identically and keep updating.
func TestCodecRestart(t *testing.T) {
	eachCoreCodec(t, func(t *testing.T, id postings.CodecID) {
		ms := codecStore()
		batches := codecBatches(7, 5)
		ix, err := New(codecConfig(id, ms))
		if err != nil {
			t.Fatal(err)
		}
		for _, us := range batches[:4] {
			if _, err := ix.ApplyUpdate(us); err != nil {
				t.Fatal(err)
			}
		}
		want := map[postings.WordID]*postings.List{}
		for w := postings.WordID(0); w < 30; w++ {
			if want[w], err = ix.GetList(w); err != nil {
				t.Fatal(err)
			}
		}

		re, err := Open(codecConfig(id, ms))
		if err != nil {
			t.Fatal(err)
		}
		if err := re.CheckConsistency(); err != nil {
			t.Fatalf("restored index inconsistent: %v", err)
		}
		for w, l := range want {
			got, err := re.GetList(w)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Docs(), l.Docs()) {
				t.Fatalf("word %d differs after restart", w)
			}
		}
		// The restored index keeps accepting updates.
		if _, err := re.ApplyUpdate(batches[4]); err != nil {
			t.Fatal(err)
		}
		if err := re.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCodecMismatchRefused pins the "refuse mixed-codec opens" contract at
// the checkpoint level.
func TestCodecMismatchRefused(t *testing.T) {
	ms := codecStore()
	ix, err := New(codecConfig(postings.CodecVarint, ms))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ApplyUpdate(codecBatches(3, 1)[0]); err != nil {
		t.Fatal(err)
	}
	for _, wrong := range []postings.CodecID{postings.CodecRaw, postings.CodecGolomb} {
		_, err := Open(codecConfig(wrong, ms))
		if err == nil {
			t.Fatalf("opening a varint index as %v succeeded", wrong)
		}
		if !strings.Contains(err.Error(), "codec") {
			t.Fatalf("unhelpful mismatch error: %v", err)
		}
	}
	// The right codec still opens.
	if _, err := Open(codecConfig(postings.CodecVarint, ms)); err != nil {
		t.Fatal(err)
	}
}

// TestCodecRequiresStore pins that simulation mode is raw-only.
func TestCodecRequiresStore(t *testing.T) {
	cfg := simConfig()
	cfg.Codec = postings.CodecVarint
	if _, err := New(cfg); err == nil {
		t.Fatal("simulation-mode codec accepted")
	}
}

// TestCodecSweep exercises Rewrite (the deletion sweep) under a codec.
func TestCodecSweep(t *testing.T) {
	eachCoreCodec(t, func(t *testing.T, id postings.CodecID) {
		ix, err := New(codecConfig(id, codecStore()))
		if err != nil {
			t.Fatal(err)
		}
		batches := codecBatches(11, 4)
		for _, us := range batches {
			if _, err := ix.ApplyUpdate(us); err != nil {
				t.Fatal(err)
			}
		}
		before, err := ix.GetList(0)
		if err != nil {
			t.Fatal(err)
		}
		if before.Len() == 0 {
			t.Fatal("word 0 has no postings")
		}
		// Delete every third document and sweep.
		deleted := map[postings.DocID]bool{}
		for i, d := range before.Docs() {
			if i%3 == 0 {
				ix.Delete(d)
				deleted[d] = true
			}
		}
		if err := ix.Sweep(); err != nil {
			t.Fatal(err)
		}
		if err := ix.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		after, err := ix.GetList(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range after.Docs() {
			if deleted[d] {
				t.Fatalf("doc %d survived the sweep", d)
			}
		}
		if want := before.Len() - len(deleted); after.Len() != want {
			t.Fatalf("swept list has %d postings, want %d", after.Len(), want)
		}
	})
}

// allocatedBlocks is the disk blocks allocated to all of d's long lists.
func allocatedBlocks(d *directory.Dir) int64 {
	var n int64
	for _, w := range d.Words() {
		for _, c := range d.Chunks(w) {
			n += c.Blocks
		}
	}
	return n
}
