// Package disk implements the storage substrate of the paper's experiments:
// block-addressed disks with per-disk first-fit free-space management, I/O
// trace recording, optional in-memory or file-backed block stores, and the
// exercise-disks process — a calibrated seek/rotation/transfer timing model
// with request coalescing and per-disk parallelism that replays an I/O trace
// the way the paper's IBM RS/6000 with SCSI-2 disks executed it.
package disk

import (
	"fmt"
	"sort"
)

// extent is a run of free blocks [start, start+count).
type extent struct {
	start, count int64
}

// FreeList manages the free space of one disk as a sorted list of extents
// and allocates with the paper's first-fit policy: "we use a first-fit
// strategy by scanning the free list for the disk from the beginning of the
// disk. Upon finding a contiguous sequence of f or more blocks, the chunk is
// placed at the beginning of the free blocks and the remaining free blocks
// are returned to free space."
type FreeList struct {
	total   int64
	free    int64
	extents []extent // sorted by start, non-adjacent, non-overlapping
}

// NewFreeList returns a free list covering blocks [0, total).
func NewFreeList(total int64) *FreeList {
	if total < 0 {
		panic("disk: negative free list size")
	}
	f := &FreeList{total: total, free: total}
	if total > 0 {
		f.extents = []extent{{0, total}}
	}
	return f
}

// TotalBlocks reports the disk size in blocks.
func (f *FreeList) TotalBlocks() int64 { return f.total }

// FreeBlocks reports how many blocks are currently free.
func (f *FreeList) FreeBlocks() int64 { return f.free }

// Alloc finds the first extent with at least n blocks, carves the chunk from
// its beginning, and returns the chunk's starting block. ok is false when no
// contiguous region of n blocks exists.
func (f *FreeList) Alloc(n int64) (start int64, ok bool) {
	if n <= 0 {
		panic(fmt.Sprintf("disk: Alloc(%d)", n))
	}
	for i := range f.extents {
		e := &f.extents[i]
		if e.count < n {
			continue
		}
		start = e.start
		e.start += n
		e.count -= n
		if e.count == 0 {
			f.extents = append(f.extents[:i], f.extents[i+1:]...)
		}
		f.free -= n
		return start, true
	}
	return 0, false
}

// Free returns blocks [start, start+n) to the free list, coalescing with
// neighbouring extents. Freeing blocks that are already free or out of range
// panics: that is always an allocator-accounting bug.
func (f *FreeList) Free(start, n int64) {
	if n <= 0 || start < 0 || start+n > f.total {
		panic(fmt.Sprintf("disk: Free(%d, %d) out of range [0,%d)", start, n, f.total))
	}
	i := sort.Search(len(f.extents), func(i int) bool { return f.extents[i].start >= start })
	// Check overlap with predecessor and successor.
	if i > 0 {
		prev := f.extents[i-1]
		if prev.start+prev.count > start {
			panic(fmt.Sprintf("disk: double free of block %d", start))
		}
	}
	if i < len(f.extents) && start+n > f.extents[i].start {
		panic(fmt.Sprintf("disk: double free of block %d", start))
	}
	mergePrev := i > 0 && f.extents[i-1].start+f.extents[i-1].count == start
	mergeNext := i < len(f.extents) && f.extents[i].start == start+n
	switch {
	case mergePrev && mergeNext:
		f.extents[i-1].count += n + f.extents[i].count
		f.extents = append(f.extents[:i], f.extents[i+1:]...)
	case mergePrev:
		f.extents[i-1].count += n
	case mergeNext:
		f.extents[i].start = start
		f.extents[i].count += n
	default:
		f.extents = append(f.extents, extent{})
		copy(f.extents[i+1:], f.extents[i:])
		f.extents[i] = extent{start, n}
	}
	f.free += n
}

// Reserve removes the specific range [start, start+n) from free space,
// failing if any block of the range is already allocated. It is used when
// reconstructing an allocator from a checkpoint: the restart walks every
// chunk recorded in the directory and superblock and reserves it.
func (f *FreeList) Reserve(start, n int64) error {
	if n <= 0 || start < 0 || start+n > f.total {
		return fmt.Errorf("disk: Reserve(%d, %d) out of range [0,%d)", start, n, f.total)
	}
	for i := range f.extents {
		e := f.extents[i]
		if e.start > start {
			break
		}
		if start >= e.start && start+n <= e.start+e.count {
			// Split the extent around the reserved range.
			var repl []extent
			if start > e.start {
				repl = append(repl, extent{e.start, start - e.start})
			}
			if end := start + n; end < e.start+e.count {
				repl = append(repl, extent{end, e.start + e.count - end})
			}
			f.extents = append(f.extents[:i], append(repl, f.extents[i+1:]...)...)
			f.free -= n
			return nil
		}
	}
	return fmt.Errorf("disk: Reserve(%d, %d): range not fully free", start, n)
}

// checkInvariants panics if the free list is malformed. It is exercised by
// the package's property tests.
func (f *FreeList) checkInvariants() {
	var sum int64
	for i, e := range f.extents {
		if e.count <= 0 {
			panic("disk: empty extent")
		}
		if e.start < 0 || e.start+e.count > f.total {
			panic("disk: extent out of range")
		}
		if i > 0 {
			prev := f.extents[i-1]
			if prev.start+prev.count >= e.start {
				panic("disk: extents overlap or not coalesced")
			}
		}
		sum += e.count
	}
	if sum != f.free {
		panic(fmt.Sprintf("disk: free count %d != extent sum %d", f.free, sum))
	}
}
