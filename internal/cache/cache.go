// Package cache provides a block-level LRU read cache that layers over any
// disk.BlockStore. The index's hottest reads — the first block of a long
// list's last chunk during in-place updates, and the chunks of frequently
// queried words — hit memory instead of the store, while the I/O trace and
// operation counters recorded by disk.Array are unaffected: the cache sits
// below the accounting layer, so simulated costs (the paper's metrics) stay
// identical whether or not a cache is attached.
package cache

import (
	"container/list"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"dualindex/internal/disk"
)

// Stats reports cache effectiveness counters. All counters are cumulative
// and counted per block, not per call: a three-block read with one resident
// block scores one hit and two misses.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// HitRate reports Hits / (Hits + Misses), or 0 before any lookups.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type key struct {
	disk  int
	block int64
}

type entry struct {
	key  key
	data []byte // the block with trailing zero padding stripped
	cost int64  // bytes charged against the budget (>= 1)
}

// Store is a disk.BlockStore that caches blocks of its inner store with LRU
// replacement under a byte budget of capacity × blockSize. Each resident
// block is charged its actual encoded size — its length after trailing zero
// padding is stripped — so compressed blocks cost what they hold and
// Options.CacheBlocks bounds real memory, not a block count. Reads are
// served from the cache when resident and fill it when not; writes go
// through to the inner store and update resident blocks (write-through, no
// write-allocate), so the cache never holds data the store does not. Safe
// for concurrent use.
type Store struct {
	inner     disk.BlockStore
	blockSize int
	budget    int64 // byte budget: capacity blocks × blockSize

	mu      sync.Mutex
	lru     *list.List // front = most recent; values are *entry
	entries map[key]*list.Element
	bytes   int64 // charged bytes of all resident entries
	// gen counts WriteAt calls. A fill inserts what it fetched only if no
	// write landed since its first pass: the inner read ran without the
	// lock, so it may hold an image older than a write that refreshed only
	// resident entries.
	gen uint64

	hits, misses, evictions atomic.Int64
}

var _ disk.BlockStore = (*Store)(nil)

// New wraps inner with an LRU cache budgeted at capacity blocks of blockSize
// bytes (compressed blocks are charged their encoded size, so more than
// capacity of them may be resident). capacity <= 0 disables caching (every
// read and write passes through).
func New(inner disk.BlockStore, blockSize, capacity int) *Store {
	return &Store{
		inner:     inner,
		blockSize: blockSize,
		budget:    int64(capacity) * int64(blockSize),
		lru:       list.New(),
		entries:   make(map[key]*list.Element),
	}
}

// Stats returns the cumulative hit/miss/eviction counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Evictions: s.evictions.Load(),
	}
}

// ReadAt implements disk.BlockStore. The run [block, block+n) is served
// block by block from the cache; any missing suffix-contiguous span is
// fetched from the inner store in one call and inserted, unless a write
// landed while it was being fetched.
func (s *Store) ReadAt(d int, block int64, buf []byte) error {
	if s.budget <= 0 {
		return s.inner.ReadAt(d, block, buf)
	}
	n := len(buf) / s.blockSize
	// First pass: serve resident blocks, remember the missing ones.
	missing := make([]int, 0, n)
	s.mu.Lock()
	gen := s.gen
	for i := 0; i < n; i++ {
		k := key{d, block + int64(i)}
		if el, ok := s.entries[k]; ok {
			s.lru.MoveToFront(el)
			dst := buf[i*s.blockSize : (i+1)*s.blockSize]
			m := copy(dst, el.Value.(*entry).data)
			clear(dst[m:]) // restore the stripped zero padding
		} else {
			missing = append(missing, i)
		}
	}
	s.mu.Unlock()
	s.hits.Add(int64(n - len(missing)))
	s.misses.Add(int64(len(missing)))
	if len(missing) == 0 {
		return nil
	}
	// Fetch each maximal contiguous run of missing blocks in one inner read.
	for lo := 0; lo < len(missing); {
		hi := lo + 1
		for hi < len(missing) && missing[hi] == missing[hi-1]+1 {
			hi++
		}
		first, count := missing[lo], missing[hi-1]-missing[lo]+1
		span := buf[first*s.blockSize : (first+count)*s.blockSize]
		if err := s.inner.ReadAt(d, block+int64(first), span); err != nil {
			return err
		}
		s.mu.Lock()
		for i := 0; i < count && s.gen == gen; i++ {
			s.insertLocked(key{d, block + int64(first+i)}, span[i*s.blockSize:(i+1)*s.blockSize])
		}
		s.mu.Unlock()
		lo = hi
	}
	return nil
}

// WriteAt implements disk.BlockStore: write-through, updating any resident
// blocks so cached data never goes stale. buf passes to the inner store,
// which owns it and never modifies it; the cache keeps copies of what it
// reads from buf.
func (s *Store) WriteAt(d int, block int64, buf []byte) error {
	if err := s.inner.WriteAt(d, block, buf); err != nil {
		return err
	}
	if s.budget <= 0 {
		return nil
	}
	n := len(buf) / s.blockSize
	s.mu.Lock()
	s.gen++
	for i := 0; i < n; i++ {
		if _, ok := s.entries[key{d, block + int64(i)}]; ok {
			// Re-insert so the charged cost tracks the new encoded size.
			s.insertLocked(key{d, block + int64(i)}, buf[i*s.blockSize:(i+1)*s.blockSize])
		}
	}
	s.mu.Unlock()
	return nil
}

// blockCost is the budget charge for one block: its length with trailing
// zero padding stripped, floored at 1 so all-zero blocks still pay for
// their bookkeeping. The padding, a long-list chunk's last block or a
// codec block's tail, is skipped eight bytes at a time.
func blockCost(data []byte) int {
	n := len(data)
	for n >= 8 && binary.LittleEndian.Uint64(data[n-8:]) == 0 {
		n -= 8
	}
	for n > 0 && data[n-1] == 0 {
		n--
	}
	return max(n, 1)
}

// insertLocked adds (or refreshes) one block, storing only its encoded
// prefix and evicting from the LRU tail while the byte budget is exceeded.
// Caller holds s.mu.
func (s *Store) insertLocked(k key, data []byte) {
	c := blockCost(data)
	trim := make([]byte, c)
	copy(trim, data[:min(c, len(data))])
	if el, ok := s.entries[k]; ok {
		e := el.Value.(*entry)
		s.bytes += int64(c) - e.cost
		e.data, e.cost = trim, int64(c)
		s.lru.MoveToFront(el)
		s.evictOverLocked(el)
		return
	}
	if int64(c) > s.budget {
		return // larger than the whole budget: never cacheable
	}
	s.bytes += int64(c)
	el := s.lru.PushFront(&entry{key: k, data: trim, cost: int64(c)})
	s.entries[k] = el
	s.evictOverLocked(el)
}

// evictOverLocked drops LRU-tail entries (never keep itself) until the
// charged bytes fit the budget. Caller holds s.mu.
func (s *Store) evictOverLocked(keep *list.Element) {
	for s.bytes > s.budget {
		tail := s.lru.Back()
		if tail == nil || tail == keep {
			return
		}
		s.lru.Remove(tail)
		e := tail.Value.(*entry)
		delete(s.entries, e.key)
		s.bytes -= e.cost
		s.evictions.Add(1)
	}
}

// Sync implements disk.BlockStore.
func (s *Store) Sync() error { return s.inner.Sync() }

// Close implements disk.BlockStore.
func (s *Store) Close() error { return s.inner.Close() }
