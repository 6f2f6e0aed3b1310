package disk

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// AsyncFileStore is the first-class file backend: like FileStore it backs
// each disk with one file, but every disk owns a writer goroutine, so
// WriteAt enqueues and returns — the paper's "one sequential write per disk"
// is actually overlapped with the caller. Correctness is preserved by a
// pending-block overlay: until the worker lands a write in the file, reads
// of its blocks are served from the queued data, so a reader always sees the
// newest enqueued version regardless of worker progress.
//
// All writes are whole aligned blocks (O_DIRECT-style discipline without the
// flag, which is not portable); durability is batched — individual writes
// never fsync, Sync drains every queue and fsyncs each file once, and the
// engine calls it exactly at checkpoint (batch-flush) boundaries.
type AsyncFileStore struct {
	blockSize int
	disks     []*asyncDisk
}

// asyncDisk is one disk's file, write queue and worker.
type asyncDisk struct {
	f    *os.File
	bs   int
	done sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []asyncWrite
	pending  map[int64]pendingBlock // newest enqueued content per block
	seq      uint64
	inflight bool // the worker is between popping an op and landing it
	err      error
	closed   bool
}

type asyncWrite struct {
	block int64
	data  []byte
	seq   uint64
}

type pendingBlock struct {
	seq  uint64
	data []byte // one block of a buffer the store owns; never mutated
}

// NewAsyncFileStore creates (or truncates) the backing files.
func NewAsyncFileStore(dir string, numDisks, blockSize int) (*AsyncFileStore, error) {
	return newAsyncFileStore(dir, numDisks, blockSize, os.O_RDWR|os.O_CREATE|os.O_TRUNC)
}

// OpenAsyncFileStore reopens an existing store's files without truncation,
// for resuming an index from its checkpoint.
func OpenAsyncFileStore(dir string, numDisks, blockSize int) (*AsyncFileStore, error) {
	return newAsyncFileStore(dir, numDisks, blockSize, os.O_RDWR|os.O_CREATE)
}

func newAsyncFileStore(dir string, numDisks, blockSize, flag int) (*AsyncFileStore, error) {
	s := &AsyncFileStore{blockSize: blockSize}
	for i := 0; i < numDisks; i++ {
		f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("disk%d.dat", i)), flag, 0o644)
		if err != nil {
			s.Close()
			return nil, err
		}
		d := &asyncDisk{f: f, bs: blockSize, pending: make(map[int64]pendingBlock)}
		d.cond = sync.NewCond(&d.mu)
		d.done.Add(1)
		go d.run()
		s.disks = append(s.disks, d)
	}
	return s, nil
}

func (s *AsyncFileStore) check(disk int, buf []byte) error {
	if disk < 0 || disk >= len(s.disks) {
		return fmt.Errorf("disk: store access to disk %d of %d", disk, len(s.disks))
	}
	if len(buf)%s.blockSize != 0 {
		return fmt.Errorf("disk: buffer length %d not a multiple of block size %d", len(buf), s.blockSize)
	}
	return nil
}

// run is the per-disk writer: it lands queued writes in FIFO order and
// retires their pending-overlay entries once the file holds the data.
func (d *asyncDisk) run() {
	defer d.done.Done()
	d.mu.Lock()
	for {
		for len(d.queue) == 0 && !d.closed {
			d.cond.Wait()
		}
		if len(d.queue) == 0 {
			d.mu.Unlock()
			return
		}
		op := d.queue[0]
		// Clear the popped slot: the queue's backing array outlives the
		// pop, and must not keep the written image reachable.
		d.queue[0] = asyncWrite{}
		d.queue = d.queue[1:]
		d.inflight = true
		d.mu.Unlock()

		_, werr := d.f.WriteAt(op.data, op.block*int64(d.bs))

		d.mu.Lock()
		d.inflight = false
		if werr != nil && d.err == nil {
			d.err = werr
		}
		for i := 0; i < len(op.data)/d.bs; i++ {
			b := op.block + int64(i)
			// Only retire the overlay if no newer write superseded it.
			if p, ok := d.pending[b]; ok && p.seq == op.seq {
				delete(d.pending, b)
			}
		}
		d.cond.Broadcast()
	}
}

// WriteAt implements BlockStore: buf itself, which the store now owns, is
// installed in the pending overlay and queued for the disk's worker. Once
// the write lands, the store keeps no reference to it.
func (s *AsyncFileStore) WriteAt(disk int, block int64, buf []byte) error {
	if err := s.check(disk, buf); err != nil {
		return err
	}
	d := s.disks[disk]
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	if d.closed {
		return fmt.Errorf("disk: write to closed store")
	}
	d.seq++
	op := asyncWrite{block: block, data: buf, seq: d.seq}
	for i := 0; i < len(buf)/d.bs; i++ {
		d.pending[block+int64(i)] = pendingBlock{seq: d.seq, data: buf[i*d.bs : (i+1)*d.bs]}
	}
	d.queue = append(d.queue, op)
	d.cond.Broadcast()
	return nil
}

// ReadAt implements BlockStore: the file supplies the base
// data and any still-pending blocks are laid over it, so enqueued writes are
// immediately visible.
func (s *AsyncFileStore) ReadAt(disk int, block int64, buf []byte) error {
	if err := s.check(disk, buf); err != nil {
		return err
	}
	d := s.disks[disk]
	type overlay struct {
		off  int
		data []byte
	}
	var ovs []overlay
	d.mu.Lock()
	if d.err != nil {
		d.mu.Unlock()
		return d.err
	}
	for i := 0; i < len(buf)/d.bs; i++ {
		if p, ok := d.pending[block+int64(i)]; ok {
			// pendingBlock data is immutable after enqueue; holding the
			// reference past the unlock is safe.
			ovs = append(ovs, overlay{off: i * d.bs, data: p.data})
		}
	}
	d.mu.Unlock()
	if err := d.readFile(block, buf); err != nil {
		return err
	}
	for _, o := range ovs {
		copy(buf[o.off:o.off+d.bs], o.data)
	}
	return nil
}

// readFile preads the range, zero-filling past EOF (raw-partition semantics
// for never-written blocks).
func (d *asyncDisk) readFile(block int64, buf []byte) error {
	n, err := d.f.ReadAt(buf, block*int64(d.bs))
	if err == io.EOF {
		for i := n; i < len(buf); i++ {
			buf[i] = 0
		}
		return nil
	}
	return err
}

// drain blocks until the disk's queue is empty and no write is in flight.
func (d *asyncDisk) drain() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.queue) > 0 || d.inflight {
		d.cond.Wait()
	}
	return d.err
}

// Sync implements BlockStore: drain every queue, then one fsync per disk —
// the engine calls this at checkpoint boundaries, so durability is batched
// per batch flush rather than per write.
func (s *AsyncFileStore) Sync() error {
	for _, d := range s.disks {
		if err := d.drain(); err != nil {
			return err
		}
		if err := d.f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close implements BlockStore: drain, stop the workers and close.
func (s *AsyncFileStore) Close() error {
	var first error
	for _, d := range s.disks {
		if d == nil {
			continue
		}
		if err := d.drain(); err != nil && first == nil {
			first = err
		}
		d.mu.Lock()
		d.closed = true
		d.cond.Broadcast()
		d.mu.Unlock()
		d.done.Wait()
		if err := d.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
