package core

import (
	"fmt"

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

// ListLen reports the number of postings currently indexed for w, including
// postings of deleted documents not yet swept.
func (ix *Index) ListLen(w postings.WordID) int64 {
	switch ix.Lookup(w) {
	case SourceLong:
		return ix.dir.Postings(w)
	case SourceBucket:
		return int64(ix.buckets.Count(w))
	}
	return 0
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
// read from disk (one read per chunk); short lists come from the in-memory
// buckets. A word with no list returns an empty list.
func (ix *Index) GetList(w postings.WordID) (*postings.List, error) {
	if ix.cfg.Store == nil {
		return nil, fmt.Errorf("core: GetList requires a data store")
	}
	var raw *postings.List
	switch ix.Lookup(w) {
	case SourceLong:
		l, _, err := ix.long.ReadList(w)
		if err != nil {
			return nil, err
		}
		raw = l
	case SourceBucket:
		raw = ix.buckets.List(w)
		if len(ix.deleted) == 0 {
			return raw.Clone(), nil // buckets.List returns the bucket's storage
		}
	default:
		return &postings.List{}, nil
	}
	if len(ix.deleted) == 0 {
		return raw, nil // freshly decoded: no one else holds it
	}
	return raw.Filter(func(d postings.DocID) bool { return ix.deleted[d] }), nil
}

// Delete marks a document deleted. The document disappears from query
// answers immediately; its postings are physically reclaimed by Sweep.
func (ix *Index) Delete(doc postings.DocID) { ix.deleted[doc] = true }

// IsDeleted reports whether doc is marked deleted.
func (ix *Index) IsDeleted(doc postings.DocID) bool { return ix.deleted[doc] }

// DeletedCount reports how many documents are marked deleted.
func (ix *Index) DeletedCount() int { return len(ix.deleted) }

// Sweep physically removes the postings of deleted documents, the paper's
// background reclamation ("a background process sweeps the lists in the
// index one list at a time, removing any deleted documents. After a sweep of
// the index, the list of deleted document identifiers can be thrown away").
// It requires a data store. The rewrite of each long list follows the
// index's allocation policy; the flush at the end checkpoints the result.
func (ix *Index) Sweep() error {
	if len(ix.deleted) == 0 {
		return nil
	}
	if ix.cfg.Store == nil {
		return fmt.Errorf("core: Sweep requires a data store")
	}
	reject := func(d postings.DocID) bool { return ix.deleted[d] }

	for _, w := range ix.dir.Words() {
		list, _, err := ix.long.ReadList(w)
		if err != nil {
			return err
		}
		kept := list.Filter(reject)
		if kept.Len() == list.Len() {
			continue
		}
		if err := ix.long.Rewrite(w, int64(kept.Len()), kept); err != nil {
			return err
		}
	}

	var sweepErr error
	var toReplace []postings.WordID
	ix.buckets.ForEachWord(func(w postings.WordID, _ int) {
		toReplace = append(toReplace, w)
	})
	for _, w := range toReplace {
		list := ix.buckets.List(w)
		kept := list.Filter(reject)
		if kept.Len() == list.Len() {
			continue
		}
		if err := ix.buckets.ReplaceList(w, kept); err != nil && sweepErr == nil {
			sweepErr = err
		}
	}
	if sweepErr != nil {
		return sweepErr
	}
	ix.deleted = make(map[postings.DocID]bool)
	return ix.flush(nil)
}
