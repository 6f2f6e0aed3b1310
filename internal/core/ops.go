package core

import (
	"fmt"
	"slices"
	"sort"

	"dualindex/internal/postings"
)

// ListSource reports where a word's inverted list lives.
type ListSource uint8

// Sources of an inverted list.
const (
	SourceNone   ListSource = iota // no list: the word has never been seen
	SourceBucket                   // short list in bucket h(w)
	SourceLong                     // long list in directory chunks
)

func (s ListSource) String() string {
	switch s {
	case SourceBucket:
		return "bucket"
	case SourceLong:
		return "long"
	default:
		return "none"
	}
}

// Lookup reports where word w's list lives. A word never has both a short
// and a long list (the dual-structure invariant).
func (ix *Index) Lookup(w postings.WordID) ListSource {
	if ix.dir.Has(w) {
		return SourceLong
	}
	if ix.buckets.Contains(w) {
		return SourceBucket
	}
	return SourceNone
}

// ReadCost reports the number of read operations a query for w would incur:
// one per chunk for a long list, zero for a bucket word (buckets are kept in
// memory during operation, as the paper assumes).
func (ix *Index) ReadCost(w postings.WordID) int {
	if ix.dir.Has(w) {
		return len(ix.dir.Chunks(w))
	}
	return 0
}

// GetList returns word w's inverted list with deleted documents filtered
// out — the paper's deletion scheme ("existing implementations typically
// maintain a list of deleted document identifiers and filter any answer to
// a query through this list"). It requires a data store. Long lists are
// read from disk, one read per chunk, counted but not traced; short lists
// are decoded from the in-memory buckets. Either way the list is freshly
// decoded, so deleted documents are filtered out in place. A word with no
// list returns an empty list.
func (ix *Index) GetList(w postings.WordID) (*postings.List, error) {
	if ix.cfg.Store == nil {
		return nil, fmt.Errorf("core: GetList requires a data store")
	}
	var l *postings.List
	switch ix.Lookup(w) {
	case SourceLong:
		var err error
		if l, err = ix.long.FetchList(w, ix.dir.Chunks(w)); err != nil {
			return nil, err
		}
	case SourceBucket:
		l = ix.buckets.List(w)
	default:
		return &postings.List{}, nil
	}
	l.Drop(ix.deleted)
	return l, nil
}

// Delete marks a document deleted. The document disappears from query
// answers immediately; its postings are physically reclaimed by Sweep.
// Deletes usually arrive oldest-first, so the common case appends.
func (ix *Index) Delete(doc postings.DocID) {
	i, found := len(ix.deleted), false
	if i > 0 && doc <= ix.deleted[i-1] {
		i, found = slices.BinarySearch(ix.deleted, doc)
	}
	if found {
		return
	}
	if ix.deletedShared {
		ix.deleted = append(make([]postings.DocID, 0, len(ix.deleted)+1), ix.deleted...)
		ix.deletedShared = false
	}
	ix.deleted = slices.Insert(ix.deleted, i, doc)
	ix.dirty = true
}

// Checkpoint makes the deletions and the high-water mark set since the last
// checkpoint durable without an update: it runs the same checkpoint a batch
// ends with, which writes the deleted list and the superblock, but does not
// count as a batch. A no-op when neither changed since the last checkpoint.
func (ix *Index) Checkpoint() error {
	if !ix.dirty {
		return nil
	}
	return ix.flush(nil)
}

// IsDeleted reports whether doc is marked deleted.
func (ix *Index) IsDeleted(doc postings.DocID) bool { return isDeleted(ix.deleted, doc) }

func isDeleted(deleted []postings.DocID, doc postings.DocID) bool {
	_, found := slices.BinarySearch(deleted, doc)
	return found
}

// DeletedCount reports how many documents are marked deleted.
func (ix *Index) DeletedCount() int { return len(ix.deleted) }

// Deleted returns the sorted deleted-document list, the argument of
// postings.List.Without. It is read-only, and valid until the next Delete,
// which may grow it in place; Sweep replaces it without writing to it.
func (ix *Index) Deleted() []postings.DocID { return ix.deleted }

// Sweep physically removes the postings of deleted documents, the paper's
// background reclamation ("a background process sweeps the lists in the
// index one list at a time, removing any deleted documents. After a sweep of
// the index, the list of deleted document identifiers can be thrown away").
// It requires a data store. The rewrite of each long list follows the
// index's allocation policy; the flush at the end checkpoints the result.
//
// Only the identifiers up to the high-water mark are thrown away. One
// above it names a document no update has applied yet — the engine's
// pending tier — so it stays listed, and filters that document's postings
// once they arrive, until a later sweep reclaims them.
func (ix *Index) Sweep() error {
	if len(ix.deleted) == 0 {
		return nil
	}
	if ix.cfg.Store == nil {
		return fmt.Errorf("core: Sweep requires a data store")
	}
	cut := sort.Search(len(ix.deleted), func(i int) bool { return ix.deleted[i] > ix.maxDoc })
	if cut == 0 {
		return nil
	}
	swept := ix.deleted[:cut]
	for _, w := range ix.dir.Words() {
		list, _, err := ix.long.ReadList(w)
		if err != nil {
			return err
		}
		if list.Drop(swept) == 0 {
			continue
		}
		if err := ix.long.Rewrite(w, int64(list.Len()), list); err != nil {
			return err
		}
	}
	ix.buckets.Purge(swept)
	// A fresh slice for the unapplied rest: the swept prefix may still be
	// read through a Snapshot or by the caller.
	ix.deleted, ix.deletedShared = slices.Clone(ix.deleted[cut:]), false
	return ix.flush(nil)
}
