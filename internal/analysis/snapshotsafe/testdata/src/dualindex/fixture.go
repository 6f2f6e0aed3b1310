// Package dualindex mirrors the engine's shard for the snapshotsafe golden
// tests: the field names (index, snap, snapBatch, pending, live, snapLive,
// mu, flushMu) match internal/analysis/contracts' SnapshotContract.
package dualindex

import "sync"

type Index struct{ deleted map[int]bool }

func (ix *Index) IsDeleted(id int) bool { return ix.deleted[id] }
func (ix *Index) Get(w int) int         { return w }

type Snapshot struct{}

func (sn *Snapshot) IsDeleted(id int) bool { return false }
func (sn *Snapshot) Get(w int) int         { return w }

type liveTier struct{ docs int }

func (lt *liveTier) Docs(id int) (int, bool) { return id, true }

type shard struct {
	mu              sync.RWMutex
	flushMu         sync.Mutex
	index           *Index
	snap            *Snapshot
	snapBatch       map[int][]int
	pending         map[int][]int
	live            *liveTier
	snapLive        *liveTier
	pendingDocs     int
	pendingPostings int64
}

// openShard is a constructor: it builds the shard before it is shared and
// may set the encapsulated fields directly. Clean.
func openShard() *shard {
	s := &shard{}
	s.index = &Index{}
	s.pending = map[int][]int{}
	s.live = &liveTier{}
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
// shard lock at all; a direct field read there is the canonical race.
func (e *Engine) observeClosure() func() int {
	s := e.shards[0]
	return func() int { return len(s.pending) } // want "accessed outside"
}

// tiers is contractually "called under RLock" and snapshot-aware (the real
// tiers()'s shape): clean.
func (s *shard) tiers(w int) int {
	if s.snap != nil {
		return s.snap.Get(w)
	}
	return s.index.Get(w)
}

// document reads the live index on a read path without consulting the
// snapshot.
func (s *shard) document(id int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index.IsDeleted(id) // want "without consulting the flush snapshot"
}

// verifyDocs is contractually "called under RLock" (contracts.UnderRLock):
// a live-index read is flagged even with no lock call in the body.
func (s *shard) verifyDocs(id int) bool {
	return s.index.IsDeleted(id) // want "without consulting the flush snapshot"
}

// liveGauge: a metrics closure reading the live tier directly runs with no
// shard lock; the field swaps at flush publish.
func (e *Engine) liveGauge() func() int {
	s := e.shards[0]
	return func() int { return s.live.docs } // want "accessed outside"
}

// pendingCounters: the size counters are encapsulated like the structures
// they size; engine layers use the shard's accessors.
func (e *Engine) pendingCounters() int64 {
	s := e.shards[0]
	docs := s.pendingDocs                  // want "accessed outside"
	return int64(docs) + s.pendingPostings // want "accessed outside"
}

// liveDocTokens reads the live tier beside its detached mid-flush twin —
// the tier-complete shape of the real method. Clean.
func (s *shard) liveDocTokens(id int) (int, bool) {
	if s.snapLive != nil {
		return s.snapLive.Docs(id)
	}
	return s.live.Docs(id)
}

// liveOnly reads the live tier on a read path without the detached twin:
// mid-flush, the documents the flush is applying vanish from its answers.
func (s *shard) liveOnly(id int) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live.Docs(id) // want "without consulting the flush snapshot"
}

// pendingOnly reads the pending bag map on a read path without the detached
// batch — same completeness hole, legacy representation. Note the index
// tier's snapshot does not excuse it: tiers are judged independently.
func (s *shard) pendingOnly(w int) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.snap != nil {
		return s.pending[w] // want "without consulting the flush snapshot"
	}
	return nil
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
	s.snap = &Snapshot{}
	s.snapBatch = nil
	s.mu.Unlock()
}
