package docstore

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"dualindex/internal/postings"
)

func testStores(t *testing.T) map[string]Store {
	t.Helper()
	file, err := OpenFile(filepath.Join(t.TempDir(), "docs.log"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMem(), "file": file}
}

func TestPutGet(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if err := s.Put(1, "hello world"); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(2, ""); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(1, "dup"); err == nil {
				t.Fatal("duplicate accepted")
			}
			text, ok, err := s.Get(1)
			if err != nil || !ok || text != "hello world" {
				t.Fatalf("Get(1) = %q, %v, %v", text, ok, err)
			}
			if text, ok, _ := s.Get(2); !ok || text != "" {
				t.Fatalf("empty doc roundtrip: %q, %v", text, ok)
			}
			if _, ok, _ := s.Get(99); ok {
				t.Fatal("unknown id found")
			}
			if s.Len() != 2 {
				t.Fatalf("Len = %d", s.Len())
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestForEachAfter pins the walker's lower bound: only identifiers above
// it are visited, in ascending order, whatever order they were stored in.
func TestForEachAfter(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			for _, id := range []postings.DocID{5, 1, 9, 3, 7} {
				if err := s.Put(id, strings.Repeat("x", int(id))); err != nil {
					t.Fatal(err)
				}
			}
			for after, want := range map[postings.DocID][]postings.DocID{
				0: {1, 3, 5, 7, 9},
				3: {5, 7, 9},
				4: {5, 7, 9},
				9: nil,
			} {
				var got []postings.DocID
				err := s.(Walker).ForEach(after, func(id postings.DocID, text string) error {
					if len(text) != int(id) {
						t.Errorf("doc %d text %q", id, text)
					}
					got = append(got, id)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("ForEach(after %d) visited %v, want %v", after, got, want)
				}
			}
		})
	}
}

func TestFileReopenRebuildsIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "docs.log")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	docs := map[postings.DocID]string{
		1: "first document",
		2: strings.Repeat("long ", 1000),
		7: "third",
	}
	for id, text := range docs {
		if err := s.Put(id, text); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 3 {
		t.Fatalf("reopened Len = %d", re.Len())
	}
	for id, want := range docs {
		got, ok, err := re.Get(id)
		if err != nil || !ok || got != want {
			t.Fatalf("doc %d: %v %v (len %d vs %d)", id, ok, err, len(got), len(want))
		}
	}
	// Appends continue after reopen.
	if err := re.Put(8, "post-reopen"); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := re.Get(8); !ok || got != "post-reopen" {
		t.Fatal("post-reopen append lost")
	}
}

func TestFileTruncatesPartialRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "docs.log")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(1, "complete record")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage tail claiming a huge record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 200, 200}) // id 9, then an unterminated varint length
	f.Close()

	torn := fileSize(t, path)

	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("Len = %d after partial-record truncation", re.Len())
	}
	// Opening writes nothing: the torn tail stays until the first Put.
	if got := fileSize(t, path); got != torn {
		t.Fatalf("OpenFile changed the log from %d to %d bytes", torn, got)
	}
	if got, ok, _ := re.Get(1); !ok || got != "complete record" {
		t.Fatal("intact record damaged")
	}
	// The store accepts new appends on the truncated tail.
	if err := re.Put(2, "recovered"); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := re.Get(2); !ok || got != "recovered" {
		t.Fatal("append after truncation lost")
	}
}

// TestFilePutCutsLongerTornTail: a torn tail longer than the first record
// appended after it is cut, not overwritten in place, so the stale bytes
// past the new record cannot be read back as a record at the next open.
func TestFilePutCutsLongerTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "docs.log")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(1, "complete record")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	valid := fileSize(t, path)
	// A header claiming 100 bytes, then 60 of them: a crash mid-append.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(append([]byte{9, 100}, strings.Repeat("z", 60)...))
	f.Close()

	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Put(2, "short"); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := fileSize(t, path), valid+2+int64(len("short")); got != want {
		t.Fatalf("log is %d bytes after the first Put, want %d", got, want)
	}
	re, err = OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for id, want := range map[postings.DocID]string{1: "complete record", 2: "short"} {
		if got, ok, err := re.Get(id); err != nil || !ok || got != want {
			t.Errorf("Get(%d) = %q, %v, %v; want %q", id, got, ok, err, want)
		}
	}
	if re.Len() != 2 {
		t.Fatalf("Len = %d, want 2", re.Len())
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestQuickFileRoundtrip(t *testing.T) {
	f := func(texts []string) bool {
		path := filepath.Join(t.TempDir(), "q.log")
		s, err := OpenFile(path)
		if err != nil {
			return false
		}
		for i, text := range texts {
			if err := s.Put(postings.DocID(i+1), text); err != nil {
				return false
			}
		}
		if err := s.Close(); err != nil {
			return false
		}
		re, err := OpenFile(path)
		if err != nil {
			return false
		}
		defer re.Close()
		for i, want := range texts {
			got, ok, err := re.Get(postings.DocID(i + 1))
			if err != nil || !ok || got != want {
				return false
			}
		}
		return re.Len() == len(texts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactMem(t *testing.T) {
	m := NewMem()
	m.Put(1, "a")
	m.Put(2, "b")
	m.Put(3, "c")
	if err := m.Compact(func(d postings.DocID) bool { return d != 2 }); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	if _, ok, _ := m.Get(2); ok {
		t.Fatal("compacted doc survived")
	}
}

func TestCompactFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.log")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := postings.DocID(1); i <= 20; i++ {
		if err := s.Put(i, strings.Repeat("x", int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	sizeBefore, _ := os.Stat(path)
	if err := s.Compact(func(d postings.DocID) bool { return d%2 == 0 }); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := postings.DocID(1); i <= 20; i++ {
		_, ok, err := s.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (i%2 == 0) {
			t.Fatalf("doc %d presence = %v", i, ok)
		}
	}
	sizeAfter, _ := os.Stat(path)
	if sizeAfter.Size() >= sizeBefore.Size() {
		t.Errorf("compaction did not shrink the log: %d → %d", sizeBefore.Size(), sizeAfter.Size())
	}
	// The compacted store accepts appends and survives reopen.
	if err := s.Put(21, "fresh"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 11 {
		t.Fatalf("reopened Len = %d", re.Len())
	}
}

// TestFileGetExactTexts pins Get's single read of a recorded text span in
// every state the span index can come from: Put (text still buffered), the
// open-time scan, Compact's rewrite, and a scan that truncated a torn tail.
// The texts include an empty one and one longer than a 4 KiB read buffer.
func TestFileGetExactTexts(t *testing.T) {
	texts := map[postings.DocID]string{
		1: "",
		2: "short text",
		3: strings.Repeat("a long record spans several pages ", 300),
		4: "Subject: café\nbody",
		5: "",
		6: strings.Repeat("x", 4097),
	}
	check := func(t *testing.T, stage string, s *File, ids ...postings.DocID) {
		t.Helper()
		for _, id := range ids {
			got, ok, err := s.Get(id)
			if err != nil || !ok || got != texts[id] {
				t.Fatalf("%s: Get(%d) = %d bytes, %v, %v; want %d bytes", stage, id, len(got), ok, err, len(texts[id]))
			}
		}
	}
	path := filepath.Join(t.TempDir(), "docs.log")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for id := postings.DocID(1); id <= 6; id++ {
		if err := s.Put(id, texts[id]); err != nil {
			t.Fatal(err)
		}
		check(t, "buffered", s, id)
	}
	check(t, "buffered", s, 1, 2, 3, 4, 5, 6)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if s, err = OpenFile(path); err != nil {
		t.Fatal(err)
	}
	check(t, "reopened", s, 1, 2, 3, 4, 5, 6)
	if err := s.Compact(func(d postings.DocID) bool { return d != 2 }); err != nil {
		t.Fatal(err)
	}
	check(t, "compacted", s, 1, 3, 4, 5, 6)
	if _, ok, _ := s.Get(2); ok {
		t.Fatal("compacted document still readable")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A torn append: a record header claiming more text than the file has.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{7, 100, 'p', 'a', 'r', 't'})
	f.Close()
	if s, err = OpenFile(path); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(t, "truncated", s, 1, 3, 4, 5, 6)
	if _, ok, _ := s.Get(7); ok {
		t.Fatal("torn record readable")
	}
	texts[7] = "appended after truncation"
	if err := s.Put(7, texts[7]); err != nil {
		t.Fatal(err)
	}
	check(t, "truncated+appended", s, 1, 3, 4, 5, 6, 7)
}

// TestFileIndexEntrySize: an index entry — the id and its span, laid out
// together in the map — takes at most 16 bytes, the size of the
// offset-only entry, so keeping text lengths does not grow resident memory.
// Offsets past 4 GiB survive the split into 32-bit words.
func TestFileIndexEntrySize(t *testing.T) {
	var entry struct {
		id postings.DocID
		sp span
	}
	if n := unsafe.Sizeof(entry); n > 16 {
		t.Fatalf("index entry is %d bytes, want at most 16", n)
	}
	for _, off := range []int64{0, 1<<32 - 1, 1 << 32, 5<<32 + 12345} {
		if got := newSpan(off, 7).off(); got != off {
			t.Errorf("span offset %d round-trips to %d", off, got)
		}
	}
}

// TestFileConcurrentGetWhileBuffered pins the store's own concurrency
// contract: Gets may run concurrently — the engine issues them under a
// shared read lock — even while Puts sit in the write buffer that Get must
// flush first. Run under -race. A reopen then finds every document exactly
// once with its text.
func TestFileConcurrentGetWhileBuffered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "docs.log")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := func(id postings.DocID) string { return strings.Repeat("w", int(id)%7) + " doc" }
	const rounds, perRound, readers = 4, 16, 4
	var next postings.DocID
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			next++
			if err := s.Put(next, text(next)); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for id := postings.DocID(1); id <= next; id++ {
					got, ok, err := s.Get(id)
					if err != nil || !ok || got != text(id) {
						t.Errorf("Get(%d) = %q, %v, %v", id, got, ok, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seen := map[postings.DocID]int{}
	err = re.ForEach(0, func(id postings.DocID, got string) error {
		seen[id]++
		if got != text(id) {
			t.Errorf("reopened doc %d = %q, want %q", id, got, text(id))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != int(next) {
		t.Fatalf("reopen found %d documents, want %d", len(seen), next)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("doc %d walked %d times", id, n)
		}
	}
}

// TestFileConcurrentGets: Gets of records already in the file share the read
// lock. Several goroutines read every stored document at once — run under
// -race — and one Get completes while another reader holds the read lock,
// which a Get that locked exclusively could not. A Get right after an
// unsynced Put flushes under the write lock and returns the new text.
func TestFileConcurrentGets(t *testing.T) {
	s, err := OpenFile(filepath.Join(t.TempDir(), "docs.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	text := func(id postings.DocID) string { return strings.Repeat("v", int(id)%11) + " stored" }
	const docs, readers = 64, 4
	for id := postings.DocID(1); id <= docs; id++ {
		if err := s.Put(id, text(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := postings.DocID(1); id <= docs; id++ {
				if got, ok, err := s.Get(id); err != nil || !ok || got != text(id) {
					t.Errorf("Get(%d) = %q, %v, %v", id, got, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	s.mu.RLock()
	done := make(chan string, 1)
	go func() {
		got, _, _ := s.Get(docs / 2)
		done <- got
	}()
	select {
	case got := <-done:
		if got != text(docs/2) {
			t.Errorf("Get under a shared read lock = %q", got)
		}
	case <-time.After(10 * time.Second):
		t.Error("Get of a flushed record waited for another reader's lock")
	}
	s.mu.RUnlock()

	if err := s.Put(docs+1, "written, not synced"); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Get(docs + 1); err != nil || !ok || got != "written, not synced" {
		t.Fatalf("Get after an unsynced Put = %q, %v, %v", got, ok, err)
	}
	if n := s.w.Buffered(); n != 0 {
		t.Fatalf("Get of a buffered record left %d bytes buffered", n)
	}
}
