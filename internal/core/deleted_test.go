package core

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dualindex/internal/postings"
)

// filtered returns docs minus the deleted set, as a list.
func filtered(docs []postings.DocID, deleted map[postings.DocID]bool) *postings.List {
	var keep []postings.DocID
	for _, d := range docs {
		if !deleted[d] {
			keep = append(keep, d)
		}
	}
	return postings.FromDocs(keep)
}

// checkDeletionView compares every deletion-facing answer of v with the
// reference set: the sorted list, membership, the count, and each word's
// filtered list.
func checkDeletionView(t *testing.T, stage string, v interface {
	Deleted() []postings.DocID
	IsDeleted(postings.DocID) bool
	DeletedCount() int
	GetList(postings.WordID) (*postings.List, error)
}, ref map[postings.WordID][]postings.DocID, deleted map[postings.DocID]bool, maxDoc postings.DocID) {
	t.Helper()
	var want []postings.DocID
	for d := range deleted {
		want = append(want, d)
	}
	slices.Sort(want)
	if got := v.Deleted(); !slices.Equal(got, want) {
		t.Fatalf("%s: deleted list %v, want %v", stage, got, want)
	}
	if v.DeletedCount() != len(want) {
		t.Fatalf("%s: DeletedCount %d, want %d", stage, v.DeletedCount(), len(want))
	}
	for d := postings.DocID(0); d <= maxDoc+1; d++ {
		if v.IsDeleted(d) != deleted[d] {
			t.Fatalf("%s: IsDeleted(%d) = %v", stage, d, !deleted[d])
		}
	}
	for w, docs := range ref {
		got, err := v.GetList(w)
		if err != nil {
			t.Fatal(err)
		}
		if want := filtered(docs, deleted); !slices.Equal(got.Docs(), want.Docs()) {
			t.Fatalf("%s: word %d has %v, want %v", stage, w, got.Docs(), want.Docs())
		}
	}
}

// TestDeleteRandomOrder deletes documents in random order, repeats
// included, and checks the sorted deleted list and every filtered answer
// after each delete, across a checkpoint and restart, and after the sweep.
func TestDeleteRandomOrder(t *testing.T) {
	cfg := storeConfig()
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := fillIndex(t, ix, 4, 40)
	r := rand.New(rand.NewSource(11))
	deleted := map[postings.DocID]bool{}
	for i := 0; i < 60; i++ {
		d := postings.DocID(r.Intn(int(ix.MaxDoc())) + 1)
		ix.Delete(d)
		deleted[d] = true
		if i%10 == 0 {
			checkDeletionView(t, "after delete", ix, ref, deleted, ix.MaxDoc())
		}
	}
	checkDeletionView(t, "deletes done", ix, ref, deleted, ix.MaxDoc())

	// The next batch checkpoints the list; a restart decodes it.
	if _, err := ix.ApplyUpdate([]WordUpdate{upd(0, ix.MaxDoc()+1)}); err != nil {
		t.Fatal(err)
	}
	ref[0] = append(ref[0], ix.MaxDoc())
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDeletionView(t, "restart", re, ref, deleted, re.MaxDoc())

	if err := re.Sweep(); err != nil {
		t.Fatal(err)
	}
	for w, docs := range ref {
		ref[w] = filtered(docs, deleted).Docs()
	}
	checkDeletionView(t, "sweep", re, ref, nil, re.MaxDoc())
	if err := re.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDeletedListCopyOnWrite pins that a snapshot shares the
// deleted list without seeing later deletes: appends, inserts before,
// between and after its identifiers, and repeats leave its IsDeleted,
// DeletedCount and GetList answers exactly as captured. The index's list
// has spare capacity when the snapshot is taken, so an insert that skipped
// the copy would shift the snapshot's identifiers in place.
func TestSnapshotDeletedListCopyOnWrite(t *testing.T) {
	ix, err := New(storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := fillIndex(t, ix, 3, 30)
	deleted := map[postings.DocID]bool{}
	for _, d := range []postings.DocID{10, 20, 40, 50, 60} {
		ix.Delete(d)
		deleted[d] = true
	}
	if cap(ix.Deleted()) == len(ix.Deleted()) {
		t.Fatal("no spare capacity: the test would not catch an in-place insert")
	}
	snap := ix.Snapshot()
	checkDeletionView(t, "captured", snap, ref, deleted, ix.MaxDoc())

	later := maps.Clone(deleted)
	for _, d := range []postings.DocID{30, 5, 70, 20, 45, 1, 89} {
		ix.Delete(d)
		later[d] = true
	}
	checkDeletionView(t, "snapshot after deletes", snap, ref, deleted, ix.MaxDoc())
	checkDeletionView(t, "index after deletes", ix, ref, later, ix.MaxDoc())

	// A second snapshot shares again; the index copies again on its next
	// write.
	snap2 := ix.Snapshot()
	ix.Delete(15)
	checkDeletionView(t, "second snapshot", snap2, ref, later, ix.MaxDoc())
	checkDeletionView(t, "first snapshot", snap, ref, deleted, ix.MaxDoc())
}

// TestSweepKeepsUnappliedDeletions pins that a sweep throws away only the
// deletions of documents the index holds: an identifier above the
// high-water mark names a document still on its way (the engine's pending
// tier), and stays listed so its postings are filtered when they arrive.
func TestSweepKeepsUnappliedDeletions(t *testing.T) {
	ix, err := New(storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := fillIndex(t, ix, 2, 30)
	high := ix.MaxDoc()
	ix.Delete(high + 2)
	ix.Delete(7)
	if err := ix.Sweep(); err != nil {
		t.Fatal(err)
	}
	if got := ix.Deleted(); !slices.Equal(got, []postings.DocID{high + 2}) {
		t.Fatalf("after sweep the deleted list is %v, want [%d]", got, high+2)
	}
	var w postings.WordID
	for w = range ref {
		break
	}
	if _, err := ix.ApplyUpdate([]WordUpdate{upd(w, high+1, high+2)}); err != nil {
		t.Fatal(err)
	}
	l, err := ix.GetList(w)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(l.Docs(), high+2) || !slices.Contains(l.Docs(), high+1) || slices.Contains(l.Docs(), 7) {
		t.Fatalf("word %d after the late batch: %v", w, l.Docs())
	}
	// The next sweep reclaims high+2 and keeps a new unapplied deletion; a
	// sweep with nothing applied to reclaim then writes nothing.
	ix.Delete(high + 10)
	if err := ix.Sweep(); err != nil {
		t.Fatal(err)
	}
	if got := ix.Deleted(); !slices.Equal(got, []postings.DocID{high + 10}) {
		t.Fatalf("after the second sweep the deleted list is %v, want [%d]", got, high+10)
	}
	w0 := ix.Array().WriteOps()
	if err := ix.Sweep(); err != nil {
		t.Fatal(err)
	}
	if ix.Array().WriteOps() != w0 {
		t.Fatal("a sweep with nothing to reclaim wrote to disk")
	}
}

// TestDecodeDocSetRefusesCorruption covers each way a deleted-list image
// can be corrupt, and the images it must accept.
func TestDecodeDocSetRefusesCorruption(t *testing.T) {
	u := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	for name, image := range map[string][]byte{
		"empty image":          nil,
		"count beyond image":   u(3, 1, 1),
		"duplicate":            u(3, 5, 0, 2),
		"id above 32 bits":     u(1, math.MaxUint32+1),
		"sum above 32 bits":    u(2, math.MaxUint32, 1),
		"gap above 64 bits":    append(u(1), bytes.Repeat([]byte{0xff}, 10)...),
		"overlong gap":         {1, 0x85, 0x00},
		"overlong count":       {0x81, 0x00, 1},
		"truncated gap":        {2, 1, 0x80},
		"count is all padding": u(1 << 60),
	} {
		if docs, err := decodeDocSet(image); err == nil {
			t.Errorf("%s: decoded to %v", name, docs)
		}
	}
	for _, docs := range [][]postings.DocID{
		{},
		{0},
		{0, 1, math.MaxUint32},
		{7, 300, 301, 1 << 20},
	} {
		padded := append(encodeDocSet(docs), make([]byte, 9)...)
		got, err := decodeDocSet(padded)
		if err != nil || !slices.Equal(got, docs) {
			t.Errorf("%v: decoded to %v, %v", docs, got, err)
		}
	}
}

// FuzzDecodeDocSet feeds arbitrary bytes to the deleted-list decoder: each
// image decodes or is refused with an error, never a panic, and a decoded
// list is strictly ascending and re-encodes to exactly the bytes it was
// read from (the rest of the image being block padding).
func FuzzDecodeDocSet(f *testing.F) {
	f.Add(encodeDocSet([]postings.DocID{1, 2, 3, 100, 5000}))
	f.Add(append(encodeDocSet([]postings.DocID{0, math.MaxUint32}), 0, 0, 0))
	f.Add([]byte{3, 5, 0, 2})
	f.Add([]byte{1, 0x85, 0x00})
	f.Add(binary.AppendUvarint([]byte{1}, math.MaxUint32+1))
	f.Fuzz(func(t *testing.T, image []byte) {
		docs, err := decodeDocSet(image)
		if err != nil {
			return
		}
		for i := 1; i < len(docs); i++ {
			if docs[i] <= docs[i-1] {
				t.Fatalf("decoded list not strictly ascending: %v", docs)
			}
		}
		if enc := encodeDocSet(docs); !bytes.HasPrefix(image, enc) {
			t.Fatalf("%v re-encodes to %x, not a prefix of %x", docs, enc, image)
		}
	})
}

// BenchmarkIndexSweep measures one sweep after 1 % of the documents are
// deleted oldest-first, over an index of a few thousand long lists. The
// index is rebuilt, off the clock, every ten sweeps, so lists shrink by at
// most a tenth between rebuilds.
func BenchmarkIndexSweep(b *testing.B) {
	const (
		words       = 3000
		docs        = 4000
		wordsPerDoc = 150
		batches     = 4
	)
	build := func() *Index {
		ix, err := New(storeConfig())
		if err != nil {
			b.Fatal(err)
		}
		r := rand.New(rand.NewSource(1))
		doc := postings.DocID(0)
		for bt := 0; bt < batches; bt++ {
			per := map[postings.WordID][]postings.DocID{}
			for i := 0; i < docs/batches; i++ {
				doc++
				for j := 0; j < wordsPerDoc; j++ {
					w := postings.WordID(r.Intn(words))
					if ds := per[w]; len(ds) == 0 || ds[len(ds)-1] != doc {
						per[w] = append(ds, doc)
					}
				}
			}
			ups := make([]WordUpdate, 0, len(per))
			for w := postings.WordID(0); w < words; w++ {
				if ds := per[w]; len(ds) > 0 {
					ups = append(ups, WordUpdate{Word: w, Count: len(ds), List: postings.FromDocs(ds)})
				}
			}
			if _, err := ix.ApplyUpdate(ups); err != nil {
				b.Fatal(err)
			}
		}
		return ix
	}
	var ix *Index
	next := postings.DocID(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%10 == 0 {
			b.StopTimer()
			ix, next = build(), 0
			b.StartTimer()
		}
		for k := 0; k < docs/100; k++ {
			next++
			ix.Delete(next)
		}
		if err := ix.Sweep(); err != nil {
			b.Fatal(err)
		}
	}
}
