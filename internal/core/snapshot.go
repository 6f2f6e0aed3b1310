package core

import (
	"fmt"

	"dualindex/internal/bucket"
	"dualindex/internal/directory"
	"dualindex/internal/postings"
)

// Snapshot is an immutable view of the index's searchable state, taken at a
// batch boundary. It deep-copies the directory, the buckets and the
// deleted-document filter, so queries can keep reading it while ApplyUpdate
// mutates the live structures — the engine's search-during-flush scheme.
//
// Long-list reads go to disk through the chunk references captured in the
// snapshot. They stay valid for the duration of exactly one batch update:
// chunks the update releases are only returned to free space at the
// update's flush, so nothing overwrites them while the snapshot lives, and
// the engine drains all snapshot readers before starting the next batch.
type Snapshot struct {
	ix      *Index
	dir     *directory.Dir
	buckets *bucket.Set
	deleted map[postings.DocID]bool
	batches int
}

// Snapshot captures the current searchable state. It must be called at a
// batch boundary (no update in flight) with no concurrent mutators.
func (ix *Index) Snapshot() *Snapshot {
	deleted := make(map[postings.DocID]bool, len(ix.deleted))
	for d := range ix.deleted {
		deleted[d] = true
	}
	return &Snapshot{
		ix:      ix,
		dir:     ix.dir.Clone(),
		buckets: ix.buckets.Clone(),
		deleted: deleted,
		batches: ix.batches,
	}
}

// IsDeleted reports whether doc was marked deleted when the snapshot was
// taken.
func (s *Snapshot) IsDeleted(doc postings.DocID) bool { return s.deleted[doc] }

// DeletedCount reports the deleted-document count at capture time.
func (s *Snapshot) DeletedCount() int { return len(s.deleted) }

// Batches reports the number of batches applied at capture time.
func (s *Snapshot) Batches() int { return s.batches }

// Directory returns the snapshot's directory copy (read-only).
func (s *Snapshot) Directory() *directory.Dir { return s.dir }

// Buckets returns the snapshot's bucket copy (read-only).
func (s *Snapshot) Buckets() *bucket.Set { return s.buckets }

// ReadCost mirrors Index.ReadCost against the snapshot.
func (s *Snapshot) ReadCost(w postings.WordID) int {
	if s.dir.Has(w) {
		return len(s.dir.Chunks(w))
	}
	return 0
}

// GetList mirrors Index.GetList against the snapshot: word w's inverted
// list as of the capture point, with then-deleted documents filtered out.
// Safe for concurrent use by any number of readers.
func (s *Snapshot) GetList(w postings.WordID) (*postings.List, error) {
	if s.ix.cfg.Store == nil {
		return nil, fmt.Errorf("core: GetList requires a data store")
	}
	var raw *postings.List
	switch {
	case s.dir.Has(w):
		_, l, err := s.ix.long.ReadChunks(w, s.dir.Chunks(w))
		if err != nil {
			return nil, err
		}
		raw = l
	case s.buckets.Contains(w):
		raw = s.buckets.List(w)
		if len(s.deleted) == 0 {
			return raw.Clone(), nil // buckets.List returns the bucket's storage
		}
	default:
		return &postings.List{}, nil
	}
	if len(s.deleted) == 0 {
		return raw, nil // freshly decoded: no one else holds it
	}
	return raw.Filter(func(d postings.DocID) bool { return s.deleted[d] }), nil
}
