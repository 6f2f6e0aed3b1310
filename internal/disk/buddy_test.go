package disk

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuddyAllocRoundsToPowersOfTwo(t *testing.T) {
	b := NewBuddy(64)
	start, ok := b.Alloc(5) // rounds to 8
	if !ok || start != 0 {
		t.Fatalf("Alloc(5) = %d, %v", start, ok)
	}
	if b.FreeBlocks() != 56 {
		t.Fatalf("free = %d, want 56 (8 consumed)", b.FreeBlocks())
	}
	if allocatedFor(5) != 8 || allocatedFor(8) != 8 || allocatedFor(9) != 16 || allocatedFor(1) != 1 {
		t.Error("orderFor rounds wrong")
	}
	// The next allocation of 8 lands on the buddy of the first.
	start2, ok := b.Alloc(8)
	if !ok || start2 != 8 {
		t.Fatalf("Alloc(8) = %d, %v", start2, ok)
	}
}

func TestBuddyAlignment(t *testing.T) {
	b := NewBuddy(1024)
	for _, n := range []int64{1, 2, 3, 7, 16, 31, 100} {
		start, ok := b.Alloc(n)
		if !ok {
			t.Fatalf("Alloc(%d) failed", n)
		}
		size := allocatedFor(n)
		if start%size != 0 {
			t.Errorf("Alloc(%d) start %d not aligned to %d", n, start, size)
		}
	}
}

func TestBuddyFreeCoalesces(t *testing.T) {
	b := NewBuddy(64)
	var starts []int64
	for i := 0; i < 8; i++ {
		s, ok := b.Alloc(8)
		if !ok {
			t.Fatal("alloc failed")
		}
		starts = append(starts, s)
	}
	if _, ok := b.Alloc(1); ok {
		t.Fatal("allocated from full disk")
	}
	for _, s := range starts {
		b.Free(s, 8)
	}
	if b.FreeBlocks() != 64 {
		t.Fatalf("free = %d after freeing all", b.FreeBlocks())
	}
	// Full coalescing: a 64-block allocation must succeed again.
	if _, ok := b.Alloc(64); !ok {
		t.Fatal("blocks did not coalesce back to a full disk")
	}
}

func TestBuddyDoubleFreePanics(t *testing.T) {
	b := NewBuddy(16)
	s, _ := b.Alloc(4)
	b.Free(s, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	b.Free(s, 4)
}

func TestBuddyMisalignedFreePanics(t *testing.T) {
	b := NewBuddy(16)
	if _, ok := b.Alloc(4); !ok {
		t.Fatal("alloc failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned free did not panic")
		}
	}()
	b.Free(1, 4)
}

func TestBuddyNonPowerOfTwoTotal(t *testing.T) {
	b := NewBuddy(100) // segments 64 + 32 + 4
	if b.TotalBlocks() != 100 || b.FreeBlocks() != 100 {
		t.Fatalf("total/free = %d/%d", b.TotalBlocks(), b.FreeBlocks())
	}
	if s, ok := b.Alloc(64); !ok || s != 0 {
		t.Fatalf("Alloc(64) = %d, %v", s, ok)
	}
	if s, ok := b.Alloc(32); !ok || s != 64 {
		t.Fatalf("Alloc(32) = %d, %v", s, ok)
	}
	if s, ok := b.Alloc(4); !ok || s != 96 {
		t.Fatalf("Alloc(4) = %d, %v", s, ok)
	}
	if _, ok := b.Alloc(1); ok {
		t.Fatal("overallocated")
	}
}

func TestBuddyOversizedAlloc(t *testing.T) {
	b := NewBuddy(100)
	if _, ok := b.Alloc(128); ok {
		t.Fatal("allocated beyond capacity")
	}
}

func TestBuddyReserveRestoresAllocations(t *testing.T) {
	// Allocate, remember, rebuild, reserve: the fresh allocator must refuse
	// overlapping allocations and accept the frees.
	b := NewBuddy(256)
	type chunk struct{ start, n int64 }
	var live []chunk
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		n := int64(r.Intn(20) + 1)
		if s, ok := b.Alloc(n); ok {
			live = append(live, chunk{s, n})
		}
	}
	re := NewBuddy(256)
	for _, c := range live {
		if err := re.Reserve(c.start, c.n); err != nil {
			t.Fatalf("Reserve(%d, %d): %v", c.start, c.n, err)
		}
	}
	if re.FreeBlocks() != b.FreeBlocks() {
		t.Fatalf("free after reserve %d != original %d", re.FreeBlocks(), b.FreeBlocks())
	}
	// Double reserve fails.
	if err := re.Reserve(live[0].start, live[0].n); err == nil {
		t.Fatal("double reserve accepted")
	}
	// Everything frees cleanly.
	for _, c := range live {
		re.Free(c.start, c.n)
	}
	if re.FreeBlocks() != 256 {
		t.Fatalf("free = %d after freeing all", re.FreeBlocks())
	}
}

func TestBuddyReserveErrors(t *testing.T) {
	b := NewBuddy(64)
	if err := b.Reserve(-1, 4); err == nil {
		t.Error("negative start accepted")
	}
	if err := b.Reserve(0, 100); err == nil {
		t.Error("out of range accepted")
	}
	if err := b.Reserve(2, 4); err == nil {
		t.Error("misaligned reserve accepted")
	}
}

func TestQuickBuddyConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const total = 512
		b := NewBuddy(total)
		type chunk struct{ start, n int64 }
		var live []chunk
		var used int64
		for step := 0; step < 200; step++ {
			if r.Intn(2) == 0 || len(live) == 0 {
				n := int64(r.Intn(30) + 1)
				if s, ok := b.Alloc(n); ok {
					live = append(live, chunk{s, n})
					used += allocatedFor(n)
				}
			} else {
				i := r.Intn(len(live))
				c := live[i]
				live = append(live[:i], live[i+1:]...)
				b.Free(c.start, c.n)
				used -= allocatedFor(c.n)
			}
			if b.FreeBlocks() != total-used {
				return false
			}
		}
		// Live allocations never overlap (using their rounded sizes).
		for i := range live {
			for j := i + 1; j < len(live); j++ {
				a, c := live[i], live[j]
				as, cs := allocatedFor(a.n), allocatedFor(c.n)
				if a.start < c.start+cs && c.start < a.start+as {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBuddyFreeAllCoalesces(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := NewBuddy(256)
		type chunk struct{ start, n int64 }
		var live []chunk
		for {
			n := int64(r.Intn(16) + 1)
			s, ok := b.Alloc(n)
			if !ok {
				break
			}
			live = append(live, chunk{s, n})
		}
		r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		for _, c := range live {
			b.Free(c.start, c.n)
		}
		if b.FreeBlocks() != 256 {
			return false
		}
		_, ok := b.Alloc(256)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestArrayWithBuddyAllocator(t *testing.T) {
	geo := Geometry{NumDisks: 2, BlocksPerDisk: 1024, BlockSize: 512}
	a, err := NewArrayWith(geo, nil, func(total int64) Allocator { return NewBuddy(total) })
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.Alloc(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Buddy consumes 16 for a 10-block request.
	if a.free[0].FreeBlocks() != 1024-16 {
		t.Fatalf("free = %d, want 1008", a.free[0].FreeBlocks())
	}
	a.Free(0, s, 10)
	if a.free[0].FreeBlocks() != 1024 {
		t.Fatalf("free = %d after free", a.free[0].FreeBlocks())
	}
}

func BenchmarkBuddyAllocFree(b *testing.B) {
	bd := NewBuddy(1 << 20)
	r := rand.New(rand.NewSource(1))
	type chunk struct{ start, n int64 }
	var live []chunk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Intn(2) == 0 || len(live) == 0 {
			n := int64(r.Intn(64) + 1)
			if s, ok := bd.Alloc(n); ok {
				live = append(live, chunk{s, n})
			}
		} else {
			j := r.Intn(len(live))
			c := live[j]
			live = append(live[:j], live[j+1:]...)
			bd.Free(c.start, c.n)
		}
	}
}

// allocatedFor is the blocks a buddy request of n blocks consumes: the
// enclosing power of two.
func allocatedFor(n int64) int64 { return int64(1) << orderFor(n) }
