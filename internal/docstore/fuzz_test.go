package docstore

import (
	"encoding/binary"
	"maps"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dualindex/internal/postings"
)

// parseLog is the reference reading of a document log: whole records from
// the start, each a varint id below 2^32, a varint length and that many
// bytes of text, until the first record that is not whole. A later record
// of an identifier replaces an earlier one. It returns the documents and
// the length of the prefix they fill.
func parseLog(data []byte) (map[postings.DocID]string, int) {
	docs := map[postings.DocID]string{}
	off := 0
	for {
		id, n := binary.Uvarint(data[off:])
		if n <= 0 || id > math.MaxUint32 {
			return docs, off
		}
		length, m := binary.Uvarint(data[off+n:])
		if m <= 0 || length > uint64(len(data)-off-n-m) {
			return docs, off
		}
		text := off + n + m
		docs[postings.DocID(id)] = string(data[text : text+int(length)])
		off = text + int(length)
	}
}

// FuzzDocLog opens arbitrary bytes as a document log. Any bytes open, to
// their longest prefix of whole records: ForEach yields exactly the
// documents the reference reading finds, and Get returns each one's text.
// The first Put cuts whatever follows the prefix, so the log then holds the
// prefix and the new record, and reopens to the same documents plus it.
func FuzzDocLog(f *testing.F) {
	var log []byte
	for id, text := range []string{"", "first text", "second"} {
		log = binary.AppendUvarint(log, uint64(id+1))
		log = binary.AppendUvarint(log, uint64(len(text)))
		log = append(log, text...)
	}
	f.Add(log)
	f.Add(log[:len(log)-1])                              // torn text
	f.Add(append(log[:len(log):len(log)], 0x80))         // torn header
	f.Add(append(log[:len(log):len(log)], 1, 3, 'a'))    // a repeated identifier, torn
	f.Add(append(log[:len(log):len(log)], 1, 1, 'a'))    // a repeated identifier, whole
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f, 0, 1, 2}) // identifier 2^35-1
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "docs.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, end := parseLog(data)
		read := func(s *File) map[postings.DocID]string {
			t.Helper()
			got := map[postings.DocID]string{}
			// ForEach starts above 0, the identifier no document is given.
			if text, ok, err := s.Get(0); err != nil {
				t.Fatal(err)
			} else if ok {
				got[0] = text
			}
			err := s.ForEach(0, func(id postings.DocID, text string) error {
				got[id] = text
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for id, text := range got {
				if g, ok, err := s.Get(id); err != nil || !ok || g != text {
					t.Fatalf("Get(%d) = %q, %v, %v; ForEach gave %q", id, g, ok, err, text)
				}
			}
			if s.Len() != len(got) {
				t.Fatalf("Len %d, ForEach yields %d", s.Len(), len(got))
			}
			return got
		}
		s, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := read(s); !maps.Equal(got, want) {
			s.Close()
			t.Fatalf("opened to %q, want %q", got, want)
		}
		fresh := postings.DocID(math.MaxUint32)
		if _, taken := want[fresh]; taken {
			fresh--
		}
		err = s.Put(fresh, "appended")
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		record := binary.AppendUvarint(nil, uint64(fresh))
		record = binary.AppendUvarint(record, uint64(len("appended")))
		if size := fileSize(t, path); size != int64(end+len(record)+len("appended")) {
			t.Fatalf("log is %d bytes after a Put, want the %d-byte prefix and the record", size, end)
		}
		s, err = OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		want[fresh] = "appended"
		if got := read(s); !maps.Equal(got, want) {
			t.Fatalf("reopened to %q, want %q", got, want)
		}
	})
}
