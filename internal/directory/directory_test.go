package directory

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dualindex/internal/postings"
)

func chunk(disk int, block, blocks, ps, cap int64) ChunkRef {
	return ChunkRef{Disk: disk, Block: block, Blocks: blocks, Postings: ps, Capacity: cap}
}

func TestEmptyDir(t *testing.T) {
	d := New()
	if d.Has(1) || d.NumWords() != 0 || d.totalChunks != 0 {
		t.Fatal("empty dir not empty")
	}
	if d.Utilization() != 1.0 {
		t.Errorf("empty utilization = %v, want 1.0 (Figure 9 initial spike)", d.Utilization())
	}
	if d.AvgReadsPerList() != 0 {
		t.Errorf("empty AvgReadsPerList = %v", d.AvgReadsPerList())
	}
}

func TestAppendChunkAndAccounting(t *testing.T) {
	d := New()
	if err := d.AppendChunk(7, chunk(0, 100, 2, 500, 800)); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendChunk(7, chunk(1, 50, 1, 100, 400)); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendChunk(9, chunk(0, 200, 1, 400, 400)); err != nil {
		t.Fatal(err)
	}
	if !d.Has(7) || d.NumWords() != 2 || d.totalChunks != 3 {
		t.Fatalf("words=%d chunks=%d", d.NumWords(), d.totalChunks)
	}
	if d.Postings(7) != 600 || d.TotalPostings() != 1000 {
		t.Fatalf("postings(7)=%d total=%d", d.Postings(7), d.TotalPostings())
	}
	if got := d.Utilization(); got != 1000.0/1600.0 {
		t.Errorf("utilization = %v", got)
	}
	if got := d.AvgReadsPerList(); got != 1.5 {
		t.Errorf("AvgReadsPerList = %v, want 1.5", got)
	}
}

func TestAppendChunkValidates(t *testing.T) {
	d := New()
	bad := []ChunkRef{
		{},
		chunk(0, 0, 0, 0, 0),   // zero blocks
		chunk(0, 0, 1, 10, 5),  // postings above capacity
		chunk(0, -1, 1, 0, 10), // negative block
		chunk(-1, 0, 1, 0, 10), // negative disk
		chunk(0, 0, 1, -1, 10), // negative postings
	}
	for i, c := range bad {
		if err := d.AppendChunk(1, c); err == nil {
			t.Errorf("bad chunk %d accepted: %+v", i, c)
		}
	}
}

func TestLastChunkAndGrow(t *testing.T) {
	d := New()
	d.AppendChunk(3, chunk(0, 0, 1, 10, 50))
	d.AppendChunk(3, chunk(0, 10, 1, 20, 40))
	last, ok := d.LastChunk(3)
	if !ok || last.Postings != 20 || last.Free() != 20 {
		t.Fatalf("LastChunk = %+v", last)
	}
	if err := d.GrowLastChunk(3, 15); err != nil {
		t.Fatal(err)
	}
	last, _ = d.LastChunk(3)
	if last.Postings != 35 || last.Free() != 5 {
		t.Fatalf("after grow: %+v", last)
	}
	if err := d.GrowLastChunk(3, 6); err == nil {
		t.Fatal("grow beyond reserved space accepted")
	}
	if err := d.GrowLastChunk(99, 1); err == nil {
		t.Fatal("grow of absent word accepted")
	}
	if d.TotalPostings() != 45 {
		t.Fatalf("TotalPostings = %d", d.TotalPostings())
	}
	if _, ok := d.LastChunk(99); ok {
		t.Fatal("LastChunk of absent word ok")
	}
}

func TestReplaceReturnsOldChunks(t *testing.T) {
	d := New()
	d.AppendChunk(5, chunk(0, 0, 2, 100, 200))
	d.AppendChunk(5, chunk(1, 8, 2, 100, 200))
	old, err := d.Replace(5, []ChunkRef{chunk(2, 40, 3, 220, 300)})
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 2 || old[0].Block != 0 || old[1].Block != 8 {
		t.Fatalf("old chunks = %+v", old)
	}
	if d.totalChunks != 1 || d.TotalPostings() != 220 {
		t.Fatalf("chunks=%d postings=%d", d.totalChunks, d.TotalPostings())
	}
}

// TestRemove: replacing a word's chunks with nil removes its long list and
// returns the chunks; removing it again returns nothing.
func TestRemove(t *testing.T) {
	d := New()
	d.AppendChunk(5, chunk(0, 0, 2, 100, 200))
	if old, err := d.Replace(5, nil); err != nil || len(old) != 1 {
		t.Fatalf("Replace(nil) = %+v, %v", old, err)
	}
	if d.Has(5) || d.totalChunks != 0 || d.TotalPostings() != 0 {
		t.Fatal("Replace(nil) left residue")
	}
	if old, _ := d.Replace(5, nil); old != nil {
		t.Fatalf("second Replace(nil) = %+v", old)
	}
}

func TestWordsSorted(t *testing.T) {
	d := New()
	for _, w := range []postings.WordID{9, 2, 5} {
		d.AppendChunk(w, chunk(0, int64(w)*10, 1, 1, 10))
	}
	ws := d.Words()
	if len(ws) != 3 || ws[0] != 2 || ws[1] != 5 || ws[2] != 9 {
		t.Fatalf("Words = %v", ws)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	d := New()
	d.AppendChunk(1, chunk(0, 0, 2, 100, 200))
	d.AppendChunk(1, chunk(3, 77, 1, 50, 100))
	d.AppendChunk(42, chunk(2, 1000, 5, 2000, 2000))
	buf := d.Encode(nil)
	if len(buf) != d.EncodedSize() {
		t.Errorf("EncodedSize %d != len %d", d.EncodedSize(), len(buf))
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumWords() != 2 || got.totalChunks != 3 {
		t.Fatalf("decoded words=%d chunks=%d", got.NumWords(), got.totalChunks)
	}
	for _, w := range d.Words() {
		a, b := d.Chunks(w), got.Chunks(w)
		if len(a) != len(b) {
			t.Fatalf("word %d chunk count", w)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("word %d chunk %d: %+v != %+v", w, i, a[i], b[i])
			}
		}
	}
	if got.TotalPostings() != d.TotalPostings() || got.Utilization() != d.Utilization() {
		t.Error("decoded accounting differs")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := Decode([]byte{5}); err == nil {
		t.Error("truncated accepted")
	}
	d := New()
	d.AppendChunk(1, chunk(0, 0, 1, 5, 10))
	buf := d.Encode(nil)
	if _, err := Decode(buf[:len(buf)-2]); err == nil {
		t.Error("chopped tail accepted")
	}
}

func TestQuickAccountingConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := New()
		for i := 0; i < 150; i++ {
			w := postings.WordID(r.Intn(20))
			switch r.Intn(3) {
			case 0:
				ps := int64(r.Intn(100))
				cap := ps + int64(r.Intn(50))
				d.AppendChunk(w, chunk(r.Intn(4), int64(r.Intn(1000)), int64(r.Intn(5)+1), ps, cap))
			case 1:
				if last, ok := d.LastChunk(w); ok && last.Free() > 0 {
					d.GrowLastChunk(w, 1+int64(r.Intn(int(last.Free()))))
				}
			case 2:
				d.Replace(w, nil)
			}
		}
		// Recompute aggregates from scratch and compare.
		var chunks, ps, cap int64
		for _, w := range d.Words() {
			for _, c := range d.Chunks(w) {
				chunks++
				ps += c.Postings
				cap += c.Capacity
			}
		}
		if chunks != d.totalChunks || ps != d.TotalPostings() || cap != d.totalCapacity {
			return false
		}
		// Roundtrip through the codec preserves everything.
		got, err := Decode(d.Encode(nil))
		return err == nil && got.totalChunks == chunks && got.TotalPostings() == ps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	d := New()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		ps := int64(r.Intn(1000))
		d.AppendChunk(postings.WordID(i), chunk(r.Intn(4), int64(r.Intn(100_000)), 2, ps, ps+100))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := d.Encode(nil)
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
