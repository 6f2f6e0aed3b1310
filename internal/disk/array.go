package disk

import (
	"cmp"
	"fmt"
	"sync"

	"dualindex/internal/parallel"
)

// Geometry describes a disk array.
type Geometry struct {
	NumDisks      int
	BlocksPerDisk int64
	BlockSize     int // bytes
}

// DefaultGeometry mirrors the paper's testbed: an array of SCSI-2 disks of
// roughly 1 GB each. BlocksPerDisk is generous so reduced-scale experiments
// never hit the capacity wall the paper hit for the fill-0 policy unless a
// test asks for it.
func DefaultGeometry() Geometry {
	return Geometry{NumDisks: 4, BlocksPerDisk: 262_144, BlockSize: 4096} // 4 × 1 GB
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.NumDisks <= 0 || g.BlocksPerDisk <= 0 || g.BlockSize <= 0 {
		return fmt.Errorf("disk: invalid geometry %+v", g)
	}
	return nil
}

// ErrNoSpace is returned when no disk can satisfy a contiguous allocation.
// It is returned by value and wrapped with %w everywhere in this codebase,
// so concurrent allocators can match it with
//
//	var noSpace disk.ErrNoSpace
//	if errors.As(err, &noSpace) { ... noSpace.Disk, noSpace.Blocks ... }
//
// regardless of which goroutine's allocation failed.
type ErrNoSpace struct {
	Disk   int
	Blocks int64
}

func (e ErrNoSpace) Error() string {
	return fmt.Sprintf("disk: no contiguous run of %d blocks on disk %d", e.Blocks, e.Disk)
}

// Array is a set of simulated disks with per-disk free lists, an I/O trace
// recorder, and an optional block store for real data.
//
// Concurrency: every method of Array is safe for concurrent use. The trace
// and the operation counters are guarded by one internal mutex; free space
// is guarded per disk, so Alloc/Free/Reserve on different disks proceed in
// parallel (one allocator lock per disk, matching the paper's one-spindle-
// per-disk parallelism). Both provided stores tolerate concurrent access.
// Note that concurrent allocation makes placement nondeterministic; the
// index's batch protocol therefore allocates, reads, stages and commits its
// writes from a single goroutine, which keeps simulated I/O traces
// deterministic.
type Array struct {
	geo    Geometry
	free   []Allocator
	freeMu []sync.Mutex // one per disk, guarding free[i]
	store  BlockStore   // may be nil: trace/accounting only

	mu                      sync.Mutex
	trace                   *Trace
	readOps, writeOps       int64
	readBlocks, writeBlocks int64
	perDisk                 []DiskOps // per-disk slices of the counters above

	// The write plan (plan.go): staged steps in plan order, and the newest
	// staged image of each block they cover.
	plan   []Step
	staged map[blockKey][]byte
}

// DiskOps are one disk's cumulative operation and block counters — the
// per-spindle breakdown of the paper's I/O accounting, which the aggregate
// counters above hide. A flush that stripes evenly shows near-equal rows;
// a hot long list shows up as one disk running ahead of its peers.
type DiskOps struct {
	ReadOps     int64
	WriteOps    int64
	ReadBlocks  int64
	WriteBlocks int64
}

// NewArray creates an array for the geometry with the paper's first-fit
// free-space management. store may be nil for simulation-only use.
func NewArray(geo Geometry, store BlockStore) (*Array, error) {
	return NewArrayWith(geo, store, func(total int64) Allocator { return NewFreeList(total) })
}

// NewArrayWith creates an array whose per-disk free space is managed by the
// allocator newAlloc builds — first-fit or the buddy system.
func NewArrayWith(geo Geometry, store BlockStore, newAlloc func(total int64) Allocator) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	a := &Array{
		geo:     geo,
		trace:   &Trace{},
		store:   store,
		freeMu:  make([]sync.Mutex, geo.NumDisks),
		perDisk: make([]DiskOps, geo.NumDisks),
		staged:  make(map[blockKey][]byte),
	}
	for i := 0; i < geo.NumDisks; i++ {
		a.free = append(a.free, newAlloc(geo.BlocksPerDisk))
	}
	return a, nil
}

// Geometry returns the array geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// HasStore reports whether the array persists block contents (true) or only
// records the I/O trace (false, the simulation pipeline's mode).
func (a *Array) HasStore() bool { return a.store != nil }

// Trace returns the I/O trace recorded so far. The caller must not read it
// concurrently with new operations.
func (a *Array) Trace() *Trace { return a.trace }

// EndBatch marks a batch-update boundary in the trace.
func (a *Array) EndBatch() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.trace.EndBatch()
}

// Alloc carves n contiguous blocks from the named disk with first-fit.
// Allocations on different disks proceed in parallel; allocations on the
// same disk serialise on that disk's lock.
func (a *Array) Alloc(disk int, n int64) (int64, error) {
	a.freeMu[disk].Lock()
	start, ok := a.free[disk].Alloc(n)
	a.freeMu[disk].Unlock()
	if !ok {
		return 0, ErrNoSpace{Disk: disk, Blocks: n}
	}
	return start, nil
}

// Free returns a chunk to the named disk's free list.
func (a *Array) Free(disk int, start, n int64) {
	a.freeMu[disk].Lock()
	defer a.freeMu[disk].Unlock()
	a.free[disk].Free(start, n)
}

// Reserve marks the specific range as allocated; see FreeList.Reserve. It
// re-adopts locations read back from a checkpoint, so an out-of-range disk
// is an error like an out-of-range block, not a panic.
func (a *Array) Reserve(disk int, start, n int64) error {
	if disk < 0 || disk >= len(a.free) {
		return fmt.Errorf("disk: Reserve on disk %d of %d", disk, len(a.free))
	}
	a.freeMu[disk].Lock()
	defer a.freeMu[disk].Unlock()
	return a.free[disk].Reserve(start, n)
}

// FreeBlocks reports the total free blocks across all disks.
func (a *Array) FreeBlocks() int64 {
	var sum int64
	for i, f := range a.free {
		a.freeMu[i].Lock()
		sum += f.FreeBlocks()
		a.freeMu[i].Unlock()
	}
	return sum
}

// ReadOps and friends report cumulative operation counts, the paper's
// primary unit of measurement in §5.2.
func (a *Array) ReadOps() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.readOps
}

// WriteOps reports cumulative write operations.
func (a *Array) WriteOps() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.writeOps
}

// Ops reports cumulative operations of both kinds.
func (a *Array) Ops() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.readOps + a.writeOps
}

// ReadBlocks reports cumulative blocks read.
func (a *Array) ReadBlocks() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.readBlocks
}

// DiskOpCounts reports one disk's cumulative counters.
func (a *Array) DiskOpCounts(disk int) DiskOps {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.perDisk[disk]
}

// WriteBlocks reports cumulative blocks written.
func (a *Array) WriteBlocks() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.writeBlocks
}

func (a *Array) checkRange(disk int, block, count int64) {
	if disk < 0 || disk >= a.geo.NumDisks {
		panic(fmt.Sprintf("disk: access to disk %d of %d", disk, a.geo.NumDisks))
	}
	if block < 0 || count <= 0 || block+count > a.geo.BlocksPerDisk {
		panic(fmt.Sprintf("disk: access [%d,%d) outside disk of %d blocks", block, block+count, a.geo.BlocksPerDisk))
	}
}

// record appends one operation of count blocks to the trace and counters.
func (a *Array) record(kind Kind, disk int, block, count int64, tag string) {
	a.checkRange(disk, block, count)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.trace.Append(Op{Kind: kind, Disk: disk, Block: block, Count: count, Tag: tag})
	a.countLocked(kind, disk, count)
}

// countLocked adds one operation of count blocks to the counters. The
// caller holds a.mu.
func (a *Array) countLocked(kind Kind, disk int, count int64) {
	if kind == Read {
		a.readOps++
		a.readBlocks += count
		a.perDisk[disk].ReadOps++
		a.perDisk[disk].ReadBlocks += count
		return
	}
	a.writeOps++
	a.writeBlocks += count
	a.perDisk[disk].WriteOps++
	a.perDisk[disk].WriteBlocks += count
}

// ReadBlocksAt records (and, with a store, performs) a read of count blocks:
// blocks the write plan has staged read as their staged image, the rest
// from the store. The blocks are read into buf's storage when its capacity
// holds them, else into a new buffer; the filled buffer is returned. Pass
// a nil buf for a fresh one. Without a store it returns nil data. Safe for
// concurrent use.
func (a *Array) ReadBlocksAt(buf []byte, disk int, block, count int64, tag string) ([]byte, error) {
	a.record(Read, disk, block, count, tag)
	return a.readInto(buf, disk, block, count)
}

// ReadUntracedAt is ReadBlocksAt for a query's read: it counts the read in
// every counter but appends nothing to the trace. The trace is what the
// paper's disk model replays — updates, sweeps, rebalances and opens — and
// a serving engine's query reads would grow it for the life of the index.
func (a *Array) ReadUntracedAt(buf []byte, disk int, block, count int64) ([]byte, error) {
	a.checkRange(disk, block, count)
	a.mu.Lock()
	a.countLocked(Read, disk, count)
	a.mu.Unlock()
	return a.readInto(buf, disk, block, count)
}

// readInto performs a counted read (see ReadBlocksAt).
func (a *Array) readInto(buf []byte, disk int, block, count int64) ([]byte, error) {
	if a.store == nil {
		return nil, nil
	}
	n := count * int64(a.geo.BlockSize)
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if err := a.store.ReadAt(disk, block, buf); err != nil {
		return nil, err
	}
	a.overlay(disk, block, buf)
	return buf, nil
}

// Run is a contiguous run of blocks on one disk.
type Run struct {
	Disk          int
	Block, Blocks int64
}

// ReadRuns reads runs as one image, the runs back to back in the order
// given: what ReadBlocksAt returns for each run, concatenated. Every read
// is recorded first, in run order, so the trace and the counters do not
// depend on the order the store serves them in; with a store, the runs are
// then read into the image at most workers at a time (parallel.Do). It
// returns the first failing run's error in run order, and nil data without
// a store.
func (a *Array) ReadRuns(runs []Run, tag string, workers int) ([]byte, error) {
	var blocks int64
	for _, r := range runs {
		a.record(Read, r.Disk, r.Block, r.Blocks, tag)
		blocks += r.Blocks
	}
	if a.store == nil {
		return nil, nil
	}
	image := make([]byte, blocks*int64(a.geo.BlockSize))
	pieces := make([][]byte, len(runs))
	var off int64
	for i, r := range runs {
		end := off + r.Blocks*int64(a.geo.BlockSize)
		pieces[i], off = image[off:end:end], end
	}
	errs := parallel.Do(len(runs), workers, func(i int) error {
		r := runs[i]
		if err := a.store.ReadAt(r.Disk, r.Block, pieces[i]); err != nil {
			return err
		}
		a.overlay(r.Disk, r.Block, pieces[i])
		return nil
	})
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	return image, nil
}

// WriteBlocksAt records (and, with a store, performs) a write of count
// blocks straight to the store, bypassing the write plan. data may be nil
// when no store is attached; when a store is attached, data shorter than
// the block run is zero-padded. The store owns data once it is handed over
// (BlockStore.WriteAt), so the caller must not modify it afterwards.
func (a *Array) WriteBlocksAt(disk int, block, count int64, data []byte, tag string) error {
	a.record(Write, disk, block, count, tag)
	if a.store == nil {
		return nil
	}
	if int64(len(data)) > count*int64(a.geo.BlockSize) {
		return fmt.Errorf("disk: %d bytes exceed %d blocks", len(data), count)
	}
	return a.store.WriteAt(disk, block, a.padTo(count, data))
}

// Sync flushes the store, modelling the paper's flush of all system buffers
// after buckets and directory are written.
func (a *Array) Sync() error {
	if a.store == nil {
		return nil
	}
	return a.store.Sync()
}

// BlocksFor reports how many blocks hold n bytes.
func (g Geometry) BlocksFor(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	return (bytes + int64(g.BlockSize) - 1) / int64(g.BlockSize)
}
