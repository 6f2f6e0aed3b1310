// Package docstore implements an append-only document store: the original
// text of every indexed document, addressable by document identifier. The
// engine uses it to return document text with search results and to verify
// positional conditions — the paper's proximity ("cat and dog occur within
// so many words of each other") and region ("mouse occurs within a title
// region") query refinements, which an abstracts-level inverted index
// cannot decide on its own.
package docstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"unsafe"

	"dualindex/internal/postings"
)

// Store persists documents. Implementations are an in-memory map and an
// append-only log file.
type Store interface {
	// Put stores a document's text. Identifiers must be new; documents are
	// immutable once written.
	Put(id postings.DocID, text string) error
	// Get returns the document's text, with ok false for unknown ids. Gets
	// may run concurrently with each other: the engine verifies a
	// positional query's candidates from several goroutines at once, all
	// under the shard's shared read lock.
	Get(id postings.DocID) (text string, ok bool, err error)
	// Len reports the number of stored documents.
	Len() int
	// Sync flushes buffered writes to stable storage.
	Sync() error
	// Close releases resources.
	Close() error
}

// Mem is an in-memory store.
type Mem struct {
	docs map[postings.DocID]string
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{docs: make(map[postings.DocID]string)}
}

// Put implements Store.
func (m *Mem) Put(id postings.DocID, text string) error {
	if _, dup := m.docs[id]; dup {
		return fmt.Errorf("docstore: duplicate document %d", id)
	}
	m.docs[id] = text
	return nil
}

// Get implements Store.
func (m *Mem) Get(id postings.DocID) (string, bool, error) {
	t, ok := m.docs[id]
	return t, ok, nil
}

// Len implements Store.
func (m *Mem) Len() int { return len(m.docs) }

// Sync implements Store.
func (m *Mem) Sync() error { return nil }

// Close implements Store.
func (m *Mem) Close() error { return nil }

// File is an append-only log-file store. Each record is a varint document
// id, a varint length, and the text. The in-memory index maps each id to
// its text's offset and length, so a Get is one exact-length read; Put
// records the span as it appends, a sequential scan rebuilds the index at
// open, and Compact rebuilds it during its one sequential copy pass, so the
// file itself is the only durable state.
//
// A File is safe for concurrent use. Gets of records already in the file
// share mu's read lock and read with one positioned read each, so they run
// in parallel; a Get whose record is still in the write buffer takes the
// write lock to flush it first. Put, Sync, Compact and Close hold the write
// lock.
type File struct {
	mu    sync.RWMutex
	path  string // the log's name; f's own name is the temporary one after a Compact
	f     *os.File
	w     *bufio.Writer
	spans map[postings.DocID]span
	size  int64 // the log's valid length, buffered records included
	torn  bool  // the file runs past size: a crash's partial record, cut at the first Put
}

// span locates one record's text in the log. It is three 32-bit words, so
// an index entry (a 4-byte id and its span) takes 16 bytes, as the
// offset-only entry it replaced did.
type span struct {
	offLo, offHi uint32 // the text's byte offset in the file
	n            uint32 // the text's length
}

func newSpan(off int64, n int) span {
	return span{offLo: uint32(off), offHi: uint32(off >> 32), n: uint32(n)}
}

func (sp span) off() int64 { return int64(sp.offHi)<<32 | int64(sp.offLo) }

// OpenFile opens (creating if needed) a log-file store and rebuilds its
// index. A trailing partial record — a crash mid-append — is ignored, and
// truncated away by the first Put, mirroring the index's batch-boundary
// recovery. Opening writes nothing, so an engine whose Open is refused
// leaves the log as it found it.
func OpenFile(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &File{path: path, f: f, spans: make(map[postings.DocID]span)}
	if err := s.scan(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(s.size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	s.w = bufio.NewWriter(f)
	return s, nil
}

// scan rebuilds the offset index, stopping at the first incomplete record
// and recording whether the file runs past it.
func (s *File) scan() error {
	r := bufio.NewReader(s.f)
	var off int64
	for {
		id, idLen, err := readUvarint(r)
		if err != nil || id > math.MaxUint32 {
			break // partial or corrupt header: truncate here
		}
		length, lenLen, err := readUvarint(r)
		if err != nil || length > math.MaxUint32 {
			break
		}
		if _, err := r.Discard(int(length)); err != nil {
			break
		}
		text := off + int64(idLen) + int64(lenLen)
		s.spans[postings.DocID(id)] = newSpan(text, int(length))
		off = text + int64(length)
	}
	s.size = off
	fi, err := s.f.Stat()
	if err != nil {
		return err
	}
	s.torn = fi.Size() > off
	return nil
}

func readUvarint(r *bufio.Reader) (uint64, int, error) {
	var v uint64
	var n int
	for shift := uint(0); ; shift += 7 {
		b, err := r.ReadByte()
		if err != nil {
			return 0, n, err
		}
		n++
		if shift == 63 && b > 1 {
			return 0, n, fmt.Errorf("docstore: varint overflow")
		}
		v |= uint64(b&0x7F) << shift
		if b < 0x80 {
			return v, n, nil
		}
	}
}

// Put implements Store.
func (s *File) Put(id postings.DocID, text string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.spans[id]; dup {
		return fmt.Errorf("docstore: duplicate document %d", id)
	}
	if len(text) > math.MaxUint32 {
		return fmt.Errorf("docstore: document %d is %d bytes, over the 4 GiB record limit", id, len(text))
	}
	if s.torn {
		// Cut the partial record before the first new byte reaches the
		// file, so a short record never sits in front of stale tail bytes.
		if err := s.f.Truncate(s.size); err != nil {
			return err
		}
		s.torn = false
	}
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(id))
	hdr = binary.AppendUvarint(hdr, uint64(len(text)))
	if _, err := s.w.Write(hdr); err != nil {
		return err
	}
	if _, err := s.w.WriteString(text); err != nil {
		return err
	}
	s.spans[id] = newSpan(s.size+int64(len(hdr)), len(text))
	s.size += int64(len(hdr)) + int64(len(text))
	return nil
}

// Get implements Store. A record already in the file is read under the
// read lock, concurrently with other such Gets; one still in the write
// buffer is flushed under the write lock first.
func (s *File) Get(id postings.DocID) (string, bool, error) {
	s.mu.RLock()
	sp, ok := s.spans[id]
	if ok && s.buffered(sp) {
		s.mu.RUnlock()
		return s.flushAndGet(id)
	}
	defer s.mu.RUnlock()
	if !ok {
		return "", false, nil
	}
	return s.read(id, sp)
}

// flushAndGet is Get for a record that was in the write buffer: it flushes
// the buffer under the write lock, then reads. The span is looked up again,
// because a Compact may have replaced the index while no lock was held.
func (s *File) flushAndGet(id postings.DocID) (string, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, ok := s.spans[id]
	if !ok {
		return "", false, nil
	}
	if err := s.w.Flush(); err != nil {
		return "", false, err
	}
	return s.read(id, sp)
}

// buffered reports whether any of sp's bytes are still in the write buffer
// rather than the file. Called with s.mu held (either mode).
func (s *File) buffered(sp span) bool {
	return sp.off()+int64(sp.n) > s.size-int64(s.w.Buffered())
}

// read is one positioned read of exactly sp's bytes, which are in the
// file. Called with s.mu held (either mode).
func (s *File) read(id postings.DocID, sp span) (string, bool, error) {
	buf := make([]byte, sp.n)
	if n, err := s.f.ReadAt(buf, sp.off()); n < len(buf) {
		return "", false, fmt.Errorf("docstore: reading document %d: %w", id, err)
	}
	// buf is never written again, so the string may share its bytes.
	return unsafe.String(unsafe.SliceData(buf), len(buf)), true, nil
}

// Len implements Store.
func (s *File) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.spans)
}

// Sync implements Store.
func (s *File) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// Close implements Store.
func (s *File) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// A Walker can enumerate stored documents, used to recover documents that
// were persisted after the index's last checkpoint.
type Walker interface {
	// ForEach calls fn for every stored document with an identifier above
	// after, in ascending identifier order, stopping at the first error.
	// The lower bound lets crash recovery read only the documents newer
	// than the checkpoint; the order lets it grow the pending tier's
	// per-word runs by tail appends.
	ForEach(after postings.DocID, fn func(id postings.DocID, text string) error) error
}

// sortedIDs returns the keys of a document map that keep accepts, in
// ascending order.
func sortedIDs[V any](m map[postings.DocID]V, keep func(postings.DocID) bool) []postings.DocID {
	var ids []postings.DocID
	for id := range m {
		if keep(id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// above returns the predicate accepting identifiers greater than after.
func above(after postings.DocID) func(postings.DocID) bool {
	return func(id postings.DocID) bool { return id > after }
}

// ForEach implements Walker for Mem.
func (m *Mem) ForEach(after postings.DocID, fn func(id postings.DocID, text string) error) error {
	for _, id := range sortedIDs(m.docs, above(after)) {
		if err := fn(id, m.docs[id]); err != nil {
			return err
		}
	}
	return nil
}

// ForEach implements Walker for File. fn runs without the store's lock
// held, so it may call back into the store.
func (s *File) ForEach(after postings.DocID, fn func(id postings.DocID, text string) error) error {
	s.mu.RLock()
	ids := sortedIDs(s.spans, above(after))
	s.mu.RUnlock()
	for _, id := range ids {
		text, ok, err := s.Get(id)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := fn(id, text); err != nil {
			return err
		}
	}
	return nil
}

// A Compactor can physically drop documents — the document-store analogue
// of the index's deletion sweep.
type Compactor interface {
	// Compact rewrites the store keeping only documents for which keep
	// returns true.
	Compact(keep func(postings.DocID) bool) error
}

// Compact implements Compactor for Mem.
func (m *Mem) Compact(keep func(postings.DocID) bool) error {
	for id := range m.docs {
		if !keep(id) {
			delete(m.docs, id)
		}
	}
	return nil
}

// Compact implements Compactor for File in one sequential pass: the log is
// read front to back through a buffer, each kept record is copied to a
// sibling temporary file in log order, and the new span index is built as
// the records are written. The temporary file is fsynced before it
// atomically replaces the log, and the directory after, so a crash leaves
// either the old log or the complete new one.
func (s *File) Compact(keep func(postings.DocID) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return err
	}
	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	spans, size, err := s.copyKept(tmp, keep)
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmpPath, s.path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	// The writes left tmp's offset at its end, where the next Put appends;
	// the copy ends at the last whole record, so no torn tail came along.
	s.f.Close()
	s.f, s.w, s.spans, s.size, s.torn = tmp, bufio.NewWriter(tmp), spans, size, false
	return syncDir(filepath.Dir(s.path))
}

// copyKept streams the log's records to dst, keeping those keep accepts,
// and returns the span index and size of what it wrote. Every record must
// be the one the current index points at: a log that disagrees with it is
// corrupt, and compacting it would silently lose documents.
func (s *File) copyKept(dst io.Writer, keep func(postings.DocID) bool) (map[postings.DocID]span, int64, error) {
	const bufSize = 64 << 10
	r := bufio.NewReaderSize(io.NewSectionReader(s.f, 0, s.size), bufSize)
	w := bufio.NewWriterSize(dst, bufSize)
	spans := make(map[postings.DocID]span, len(s.spans))
	var hdr []byte
	var off, size int64
	for off < s.size {
		id, idLen, err := readUvarint(r)
		if err != nil {
			return nil, 0, fmt.Errorf("docstore: compacting: record at %d: %w", off, err)
		}
		n, nLen, err := readUvarint(r)
		if err != nil {
			return nil, 0, fmt.Errorf("docstore: compacting: record at %d: %w", off, err)
		}
		text := off + int64(idLen) + int64(nLen)
		sp, ok := s.spans[postings.DocID(id)]
		if id > math.MaxUint32 || !ok || sp.off() != text || uint64(sp.n) != n {
			return nil, 0, fmt.Errorf("docstore: compacting: record at %d (doc %d, %d bytes) disagrees with the index", off, id, n)
		}
		if keep(postings.DocID(id)) {
			hdr = binary.AppendUvarint(hdr[:0], id)
			hdr = binary.AppendUvarint(hdr, n)
			if _, err := w.Write(hdr); err != nil {
				return nil, 0, err
			}
			spans[postings.DocID(id)] = newSpan(size+int64(len(hdr)), int(n))
			if err := copyText(w, r, int(n)); err != nil {
				return nil, 0, fmt.Errorf("docstore: compacting doc %d: %w", id, err)
			}
			size += int64(len(hdr)) + int64(n)
		} else if _, err := r.Discard(int(n)); err != nil {
			return nil, 0, fmt.Errorf("docstore: compacting past doc %d: %w", id, err)
		}
		off = text + int64(n)
	}
	return spans, size, w.Flush()
}

// copyText moves the next n bytes of r to w straight from r's buffer.
func copyText(w *bufio.Writer, r *bufio.Reader, n int) error {
	for n > 0 {
		chunk, err := r.Peek(min(n, r.Size()))
		if err != nil {
			return err
		}
		if _, err := w.Write(chunk); err != nil {
			return err
		}
		r.Discard(len(chunk)) // cannot fail: Peek buffered these bytes
		n -= len(chunk)
	}
	return nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
