package disk

import (
	"fmt"
	"sync"
)

// A BlockStore persists block contents. The simulation pipeline runs without
// one (operation counts and the timing model need no data); the real index
// stores encoded postings through one.
//
// Implementations must be safe for concurrent use: queries read
// concurrently with a running flush's writes, and Open reads a checkpoint
// region's chunks concurrently. Both provided stores satisfy this —
// MemStore with per-disk locks, AsyncFileStore with per-disk write queues
// and pread/pwrite.
type BlockStore interface {
	// ReadAt fills buf with block contents starting at the given block.
	// len(buf) must be a multiple of the block size.
	ReadAt(disk int, block int64, buf []byte) error
	// WriteAt writes buf starting at the given block. len(buf) must be a
	// multiple of the block size. The store takes ownership of buf: it may
	// keep buf and read it until the write lands, so the caller must not
	// modify or reuse it once WriteAt is called. A store never modifies a
	// buffer handed to it, so the caller may still read it.
	WriteAt(disk int, block int64, buf []byte) error
	// Sync flushes buffered writes to stable storage.
	Sync() error
	// Close releases resources.
	Close() error
}

// MemStore is an in-memory block store. It is safe for concurrent use:
// each simulated disk has its own lock, so concurrent reads and writes
// never serialise across disks.
type MemStore struct {
	blockSize int
	mu        []sync.RWMutex // one per disk
	disks     []map[int64][]byte
}

// NewMemStore returns an in-memory store for the given geometry.
func NewMemStore(numDisks, blockSize int) *MemStore {
	disks := make([]map[int64][]byte, numDisks)
	for i := range disks {
		disks[i] = make(map[int64][]byte)
	}
	return &MemStore{blockSize: blockSize, mu: make([]sync.RWMutex, numDisks), disks: disks}
}

func (s *MemStore) check(disk int, block int64, buf []byte) error {
	if disk < 0 || disk >= len(s.disks) {
		return fmt.Errorf("disk: store access to disk %d of %d", disk, len(s.disks))
	}
	if len(buf)%s.blockSize != 0 {
		return fmt.Errorf("disk: buffer length %d not a multiple of block size %d", len(buf), s.blockSize)
	}
	if block < 0 {
		return fmt.Errorf("disk: negative block %d", block)
	}
	return nil
}

// ReadAt implements BlockStore. Unwritten blocks read as zeros.
func (s *MemStore) ReadAt(disk int, block int64, buf []byte) error {
	if err := s.check(disk, block, buf); err != nil {
		return err
	}
	s.mu[disk].RLock()
	defer s.mu[disk].RUnlock()
	for off := 0; off < len(buf); off += s.blockSize {
		b := s.disks[disk][block+int64(off/s.blockSize)]
		if b == nil {
			for i := off; i < off+s.blockSize; i++ {
				buf[i] = 0
			}
		} else {
			copy(buf[off:off+s.blockSize], b)
		}
	}
	return nil
}

// WriteAt implements BlockStore.
func (s *MemStore) WriteAt(disk int, block int64, buf []byte) error {
	if err := s.check(disk, block, buf); err != nil {
		return err
	}
	s.mu[disk].Lock()
	defer s.mu[disk].Unlock()
	for off := 0; off < len(buf); off += s.blockSize {
		b := make([]byte, s.blockSize)
		copy(b, buf[off:off+s.blockSize])
		s.disks[disk][block+int64(off/s.blockSize)] = b
	}
	return nil
}

// Sync implements BlockStore (a no-op in memory).
func (s *MemStore) Sync() error { return nil }

// Close implements BlockStore.
func (s *MemStore) Close() error { return nil }
