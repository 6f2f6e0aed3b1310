// Package dualindex mirrors the engine's shard for the snapshotsafe golden
// tests: the field names (index, snap, pending, snapPending, mu, flushMu)
// match internal/analysis/contracts' SnapshotContract.
package dualindex

import "sync"

type Index struct{ deleted map[int]bool }

func (ix *Index) IsDeleted(id int) bool { return ix.deleted[id] }
func (ix *Index) Get(w int) int         { return w }

type Snapshot struct{}

func (sn *Snapshot) IsDeleted(id int) bool { return false }
func (sn *Snapshot) Get(w int) int         { return w }

type view interface{ Get(w int) int }

type pendingTier struct{ docs int }

func (lt *pendingTier) Docs(id int) (int, bool) { return id, true }

type shard struct {
	mu          sync.RWMutex
	flushMu     sync.Mutex
	index       *Index
	snap        *Snapshot
	pending     *pendingTier
	snapPending *pendingTier
	docs        map[int]string
}

// openShard is a constructor: it builds the shard before it is shared and
// may set the encapsulated fields directly. Clean.
func openShard() *shard {
	s := &shard{}
	s.index = &Index{}
	s.pending = &pendingTier{}
	return s
}

type Engine struct{ shards []*shard }

// fanout reads the live index from outside the shard's methods: whatever
// lock the engine holds, the field itself mutates mid-flush.
func (e *Engine) fanout() bool {
	s := e.shards[0]
	return s.index.IsDeleted(1) // want "accessed outside"
}

// observeClosure: closures registered with the metrics registry run with no
// shard lock at all; a direct field read there is the canonical race (the
// pending tier swaps at flush publish).
func (e *Engine) observeClosure() func() int {
	s := e.shards[0]
	return func() int { return s.pending.docs } // want "accessed outside"
}

// view is the real view()'s shape: the snapshot while a flush applies, the
// index otherwise. Clean.
func (s *shard) view() view {
	if s.snap != nil {
		return s.snap
	}
	return s.index
}

// tiers is contractually "called under RLock"; it reads the index only
// through view and the pending tier beside its detached twin. Clean.
func (s *shard) tiers(id int) (int, bool) {
	if s.snapPending != nil {
		return s.snapPending.Docs(id)
	}
	return s.pending.Docs(s.view().Get(id))
}

// document reads the live index on a read path without consulting the
// snapshot.
func (s *shard) document(id int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index.IsDeleted(id) // want "without consulting the flush snapshot"
}

// prefetchPlan is contractually "called under RLock" (contracts.UnderRLock):
// it reads the pending tier without its detached twin, so mid-flush the
// documents the flush is applying vanish from its answers. The index
// tier's snapshot does not excuse it: tiers are judged independently.
func (s *shard) prefetchPlan(id int) (int, bool) {
	if s.snap != nil {
		return 0, false
	}
	return s.pending.Docs(id) // want "without consulting the flush snapshot"
}

// verifyDocs is "called under RLock" too, but reads only the document
// store, which is not a tier: every pending and flushed document is in it.
// Clean.
func (s *shard) verifyDocs(id int) (string, bool) {
	text, ok := s.docs[id]
	return text, ok
}

// sweepLocked excludes a concurrent flush by holding the flush lock: the
// live read cannot race a mid-apply batch. Clean.
func (s *shard) sweepLocked() bool {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	return s.index.IsDeleted(1)
}

// flushBatch holds the write lock and publishes the snapshot: clean (a
// writer, not a read path).
func (s *shard) flushBatch() {
	s.mu.Lock()
	s.snap, s.snapPending, s.pending = &Snapshot{}, s.pending, &pendingTier{}
	s.mu.Unlock()
}
