package docstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dualindex/internal/postings"
)

// appendRecord appends one log record — varint id, varint length, text — in
// the format Put writes.
func appendRecord(b []byte, id postings.DocID, text string) []byte {
	b = binary.AppendUvarint(b, uint64(id))
	b = binary.AppendUvarint(b, uint64(len(text)))
	return append(b, text...)
}

// TestCompactFileMatchesAscendingRewrite pins the streaming compaction to
// the log the ascending-identifier rewrite it replaced produced: for a log
// written in identifier order — with gaps in the numbering and a torn tail
// that OpenFile truncates — the compacted file is byte for byte the kept
// records in ascending order, and the span index built during the pass is
// the one OpenFile rebuilds from the result. A second compaction and an
// append after it land in the same file, and nothing else is left beside
// it.
func TestCompactFileMatchesAscendingRewrite(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		path := filepath.Join(t.TempDir(), "c.log")
		s, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		texts := map[postings.DocID]string{}
		var ids []postings.DocID
		n := 1 + r.Intn(300)
		for id := postings.DocID(0); len(ids) < n; {
			id += postings.DocID(1 + r.Intn(4)) // gaps in the numbering
			text := strings.Repeat(string(rune('a'+r.Intn(26))), r.Intn(300))
			if err := s.Put(id, text); err != nil {
				t.Fatal(err)
			}
			texts[id] = text
			ids = append(ids, id)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// A torn tail: the header and part of the text of one more record.
		torn := appendRecord(nil, ids[len(ids)-1]+1, "torn record text")
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(torn[:len(torn)-5]); err != nil {
			t.Fatal(err)
		}
		f.Close()

		s, err = OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Two rounds: the second compacts the first's output, which must
		// have replaced the log under its own name.
		kept := func(d postings.DocID) bool { return true }
		for round := uint32(1); round <= 2; round++ {
			prev := kept
			kept = func(d postings.DocID) bool { return prev(d) && (uint32(d)*2654435761*round)>>29 != 0 }
			var want []byte
			for _, id := range ids {
				if kept(id) {
					want = appendRecord(want, id, texts[id])
				}
			}
			if err := s.Compact(kept); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("iter %d round %d: compacted log (%d bytes) differs from the ascending rewrite (%d bytes)",
					iter, round, len(got), len(want))
			}
			re, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(s.spans, re.spans) || s.size != re.size {
				t.Fatalf("iter %d round %d: in-pass span index (%d docs, %d bytes) differs from the rebuilt one (%d docs, %d bytes)",
					iter, round, len(s.spans), s.size, len(re.spans), re.size)
			}
			re.Close()
			// The compacted store serves every kept document.
			for _, id := range ids {
				text, ok, err := s.Get(id)
				if err != nil || ok != kept(id) || (ok && text != texts[id]) {
					t.Fatalf("iter %d round %d: doc %d after compaction: ok=%v err=%v", iter, round, id, ok, err)
				}
			}
		}
		// It appends after the compacted records, under the log's name.
		if err := s.Put(ids[len(ids)-1]+1, "after"); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
			t.Fatalf("iter %d: directory holds %v (%v), want the log alone", iter, entries, err)
		}
		re, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if text, ok, err := re.Get(ids[len(ids)-1] + 1); err != nil || !ok || text != "after" {
			t.Fatalf("iter %d: append after compaction lost on reopen: %q, %v, %v", iter, text, ok, err)
		}
		re.Close()
	}
}

// TestCompactFileRejectsStaleRecord pins that a record the index does not
// point at — here the first of two records for one identifier, which the
// open-time scan resolves to the second — fails the compaction instead of
// being skipped, and leaves the log as it was.
func TestCompactFileRejectsStaleRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.log")
	var log []byte
	log = appendRecord(log, 1, "one")
	log = appendRecord(log, 2, "stale two")
	log = appendRecord(log, 2, "two")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Compact(func(postings.DocID) bool { return true }); err == nil {
		t.Fatal("Compact accepted a record that disagrees with the index")
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, log) {
		t.Fatal("failed compaction changed the log")
	}
	if text, ok, err := s.Get(2); err != nil || !ok || text != "two" {
		t.Fatalf("Get(2) after failed compaction = %q, %v, %v", text, ok, err)
	}
}

// BenchmarkCompactFile measures one compaction of a log of short news-sized
// documents that drops 1 % of them, oldest first.
func BenchmarkCompactFile(b *testing.B) {
	const docs = 20000
	text := strings.Repeat("lorem ipsum dolor sit amet ", 40)
	var log []byte
	for id := postings.DocID(1); id <= docs; id++ {
		log = appendRecord(log, id, fmt.Sprintf("%d %s", id, text))
	}
	keep := func(d postings.DocID) bool { return d > docs/100 }
	path := filepath.Join(b.TempDir(), "c.log")
	b.SetBytes(int64(len(log)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.WriteFile(path, log, 0o644); err != nil {
			b.Fatal(err)
		}
		s, err := OpenFile(path)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.Compact(keep); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}
