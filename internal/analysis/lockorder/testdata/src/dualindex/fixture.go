// Package dualindex mirrors the engine's lock-bearing types for the
// lockorder golden tests: same package name, type names and field names as
// the real module, which is what the analyzer matches on (see
// internal/analysis/contracts).
package dualindex

import "sync"

type Engine struct {
	reshardMu sync.RWMutex
	stateMu   sync.RWMutex
	mu        sync.Mutex
	shards    []*shard
}

type shard struct {
	flushMu sync.Mutex
	mu      sync.RWMutex
}

// inOrder walks the documented hierarchy outermost-in: clean.
func (e *Engine) inOrder() {
	e.reshardMu.RLock()
	defer e.reshardMu.RUnlock()
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	s := e.shards[0]
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
}

// inverted acquires the engine state lock before the reshard lock.
func (e *Engine) inverted() {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	e.reshardMu.RLock() // want "violates the lock hierarchy"
	e.reshardMu.RUnlock()
}

// shardThenEngine inverts across layers: the per-shard lock is inner.
func (e *Engine) shardThenEngine(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.mu.Lock() // want "violates the lock hierarchy"
	e.mu.Unlock()
}

// releaseThenTake is clean: the higher-ranked lock is explicitly released
// before the lower-ranked one is taken, so they are never held together.
func (e *Engine) releaseThenTake() {
	e.stateMu.RLock()
	e.stateMu.RUnlock()
	e.reshardMu.RLock()
	e.reshardMu.RUnlock()
}

// tryInverted try-acquires the flush lock while holding the shard lock:
// a TryLock is an acquisition like any other, so it is held to rank order.
func (s *shard) tryInverted() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flushMu.TryLock() { // want "violates the lock hierarchy"
		s.flushMu.Unlock()
	}
}

// goroutineScope shows a function literal analyzed as its own scope: the
// closure's reshard acquisition does not see the outer stateMu hold (it
// runs under its own control flow), so neither body is flagged.
func (e *Engine) goroutineScope() {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	go func() {
		e.reshardMu.RLock()
		e.reshardMu.RUnlock()
	}()
}

// suppressed proves a justified directive silences the finding: no want.
func (e *Engine) suppressed() {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	e.reshardMu.RLock() //nolint:lockorder // fixture: exercising justified suppression
	e.reshardMu.RUnlock()
}
