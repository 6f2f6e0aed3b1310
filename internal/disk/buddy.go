package disk

import (
	"fmt"
	"math/bits"
)

// An Allocator manages the free space of one disk. FreeList (the paper's
// first-fit strategy) is the default; Buddy implements the buddy system
// that the paper's related-work section attributes to Cutting and Pedersen
// and flags for further experimental study ("its expected space utilization
// is lower than the methods presented here, however it may offer better
// update performance").
type Allocator interface {
	// Alloc returns the start of a contiguous run of at least n blocks.
	Alloc(n int64) (start int64, ok bool)
	// Free releases an allocation previously returned by Alloc (or carved
	// by Reserve) that covered n requested blocks.
	Free(start, n int64)
	// Reserve marks the specific allocation [start, start+n) as in use, for
	// checkpoint restarts.
	Reserve(start, n int64) error
	// TotalBlocks and FreeBlocks report capacity and availability. For the
	// buddy system, FreeBlocks excludes the rounding waste of live
	// allocations — allocating n blocks consumes the enclosing power of
	// two.
	TotalBlocks() int64
	FreeBlocks() int64
}

// Buddy is a binary buddy allocator over [0, total) blocks. Requests round
// up to the next power of two; blocks split on demand and coalesce with
// their buddy on free.
type Buddy struct {
	total     int64
	free      int64
	maxOrder  uint
	avail     []map[int64]bool // per order: set of free block starts
	allocated map[int64]uint   // live allocations: start → order
}

// NewBuddy returns a buddy allocator covering blocks [0, total). A total
// that is not a power of two is seeded as a forest of maximal aligned
// power-of-two segments.
func NewBuddy(total int64) *Buddy {
	if total < 0 {
		panic("disk: negative buddy size")
	}
	maxOrder := uint(0)
	for int64(1)<<(maxOrder+1) <= total {
		maxOrder++
	}
	b := &Buddy{total: total, free: total, maxOrder: maxOrder, allocated: make(map[int64]uint)}
	b.avail = make([]map[int64]bool, maxOrder+1)
	for i := range b.avail {
		b.avail[i] = make(map[int64]bool)
	}
	// Seed: greedy decomposition into aligned power-of-two segments.
	start := int64(0)
	for start < total {
		order := b.maxOrder
		for {
			size := int64(1) << order
			if start%size == 0 && start+size <= total {
				break
			}
			order--
		}
		b.avail[order][start] = true
		start += int64(1) << order
	}
	return b
}

// TotalBlocks implements Allocator.
func (b *Buddy) TotalBlocks() int64 { return b.total }

// FreeBlocks implements Allocator. Rounding waste counts as used.
func (b *Buddy) FreeBlocks() int64 { return b.free }

func orderFor(n int64) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len64(uint64(n - 1)))
}

// Alloc implements Allocator: find the smallest free block of order ≥
// ⌈log₂ n⌉, splitting larger blocks as needed.
func (b *Buddy) Alloc(n int64) (int64, bool) {
	if n <= 0 {
		panic(fmt.Sprintf("disk: buddy Alloc(%d)", n))
	}
	want := orderFor(n)
	if want > b.maxOrder {
		return 0, false
	}
	order := want
	for order <= b.maxOrder && len(b.avail[order]) == 0 {
		order++
	}
	if order > b.maxOrder {
		return 0, false
	}
	start := minKey(b.avail[order]) // lowest start, for determinism
	delete(b.avail[order], start)
	for order > want {
		order--
		buddy := start + (int64(1) << order)
		b.avail[order][buddy] = true
	}
	b.free -= int64(1) << want
	b.allocated[start] = want
	return start, true
}

func minKey(m map[int64]bool) int64 {
	first := true
	var min int64
	for k := range m {
		if first || k < min {
			min = k
			first = false
		}
	}
	return min
}

// Free implements Allocator: release the power-of-two block that served a
// request of n blocks, merging with free buddies.
func (b *Buddy) Free(start, n int64) {
	if n <= 0 || start < 0 || start+n > b.total {
		panic(fmt.Sprintf("disk: buddy Free(%d, %d) out of range", start, n))
	}
	order := orderFor(n)
	size := int64(1) << order
	if start%size != 0 {
		panic(fmt.Sprintf("disk: buddy Free(%d, %d): start not aligned to %d", start, n, size))
	}
	got, live := b.allocated[start]
	if !live || got != order {
		panic(fmt.Sprintf("disk: buddy Free(%d, %d): no live order-%d allocation there", start, n, order))
	}
	delete(b.allocated, start)
	b.free += size
	for order < b.maxOrder {
		buddy := start ^ (int64(1) << order)
		if !b.avail[order][buddy] {
			break
		}
		delete(b.avail[order], buddy)
		if buddy < start {
			start = buddy
		}
		order++
	}
	b.avail[order][start] = true
}

// Reserve implements Allocator: carve the exact power-of-two block that an
// earlier Alloc(n) at start would have consumed. start must be aligned for
// that order, as every block produced by Alloc is.
func (b *Buddy) Reserve(start, n int64) error {
	if n <= 0 || start < 0 || start+n > b.total {
		return fmt.Errorf("disk: buddy Reserve(%d, %d) out of range", start, n)
	}
	want := orderFor(n)
	size := int64(1) << want
	if start%size != 0 {
		return fmt.Errorf("disk: buddy Reserve(%d, %d): misaligned for order %d", start, n, want)
	}
	// Find the free ancestor block containing [start, start+size).
	order := want
	for order <= b.maxOrder {
		anc := start &^ ((int64(1) << order) - 1)
		if b.avail[order][anc] {
			// Split the ancestor down to the wanted block.
			delete(b.avail[order], anc)
			cur := anc
			for order > want {
				order--
				half := int64(1) << order
				if start < cur+half {
					b.avail[order][cur+half] = true
				} else {
					b.avail[order][cur] = true
					cur += half
				}
			}
			b.free -= size
			b.allocated[start] = want
			return nil
		}
		order++
	}
	return fmt.Errorf("disk: buddy Reserve(%d, %d): range not free", start, n)
}

var (
	_ Allocator = (*Buddy)(nil)
	_ Allocator = (*FreeList)(nil)
)
