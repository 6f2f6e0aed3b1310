package disk

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFreeListAllocFirstFit(t *testing.T) {
	f := NewFreeList(100)
	a, ok := f.Alloc(10)
	if !ok || a != 0 {
		t.Fatalf("first alloc at %d, want 0", a)
	}
	b, ok := f.Alloc(10)
	if !ok || b != 10 {
		t.Fatalf("second alloc at %d, want 10", b)
	}
	// Free the first hole; first-fit must reuse it for a fitting request.
	f.Free(a, 10)
	c, ok := f.Alloc(5)
	if !ok || c != 0 {
		t.Fatalf("first-fit alloc at %d, want 0", c)
	}
	// A request too large for the hole skips it.
	d, ok := f.Alloc(20)
	if !ok || d != 20 {
		t.Fatalf("large alloc at %d, want 20", d)
	}
	f.checkInvariants()
}

func TestFreeListExhaustion(t *testing.T) {
	f := NewFreeList(10)
	if _, ok := f.Alloc(11); ok {
		t.Fatal("allocated more than capacity")
	}
	a, _ := f.Alloc(10)
	if f.FreeBlocks() != 0 {
		t.Fatalf("free = %d, want 0", f.FreeBlocks())
	}
	if _, ok := f.Alloc(1); ok {
		t.Fatal("allocated from empty disk")
	}
	f.Free(a, 10)
	if f.FreeBlocks() != 10 {
		t.Fatalf("free = %d after full free", f.FreeBlocks())
	}
}

func TestFreeListFragmentation(t *testing.T) {
	f := NewFreeList(30)
	var chunks []int64
	for i := 0; i < 3; i++ {
		a, ok := f.Alloc(10)
		if !ok {
			t.Fatal("alloc failed")
		}
		chunks = append(chunks, a)
	}
	// Free the middle chunk: 10 free blocks exist but a 20-block request
	// must fail (no contiguity), then succeed after freeing a neighbour.
	f.Free(chunks[1], 10)
	if _, ok := f.Alloc(20); ok {
		t.Fatal("allocated non-contiguous space")
	}
	f.Free(chunks[2], 10)
	if _, ok := f.Alloc(20); !ok {
		t.Fatal("coalescing failed: contiguous 20 blocks not found")
	}
	f.checkInvariants()
}

func TestFreeListCoalescesBothSides(t *testing.T) {
	f := NewFreeList(30)
	a, _ := f.Alloc(10)
	b, _ := f.Alloc(10)
	c, _ := f.Alloc(10)
	f.Free(a, 10)
	f.Free(c, 10)
	f.Free(b, 10) // merges with both neighbours
	if largestExtent(f) != 30 {
		t.Fatalf("largest extent %d, want 30", largestExtent(f))
	}
	f.checkInvariants()
}

func TestFreeListDoubleFreePanics(t *testing.T) {
	f := NewFreeList(10)
	a, _ := f.Alloc(5)
	f.Free(a, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	f.Free(a, 5)
}

func TestFreeListPartialOverlapFreePanics(t *testing.T) {
	f := NewFreeList(20)
	_, _ = f.Alloc(10) // blocks 0..9 in use; 10..19 free
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping free did not panic")
		}
	}()
	f.Free(5, 10) // overlaps the free region 10..14
}

func TestFreeListZeroSize(t *testing.T) {
	f := NewFreeList(0)
	if _, ok := f.Alloc(1); ok {
		t.Fatal("allocated from zero-size disk")
	}
}

func TestQuickFreeListConservation(t *testing.T) {
	// Random alloc/free sequences preserve block conservation and all
	// structural invariants.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const total = 1000
		fl := NewFreeList(total)
		type chunk struct{ start, n int64 }
		var live []chunk
		var used int64
		for step := 0; step < 300; step++ {
			if r.Intn(2) == 0 || len(live) == 0 {
				n := int64(r.Intn(50) + 1)
				if start, ok := fl.Alloc(n); ok {
					live = append(live, chunk{start, n})
					used += n
				}
			} else {
				i := r.Intn(len(live))
				c := live[i]
				live = append(live[:i], live[i+1:]...)
				fl.Free(c.start, c.n)
				used -= c.n
			}
			fl.checkInvariants()
			if fl.FreeBlocks() != total-used {
				return false
			}
		}
		// Allocated chunks must not overlap each other.
		for i := range live {
			for j := i + 1; j < len(live); j++ {
				a, b := live[i], live[j]
				if a.start < b.start+b.n && b.start < a.start+a.n {
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

func TestQuickFreeAllRestoresOneExtent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const total = 512
		fl := NewFreeList(total)
		type chunk struct{ start, n int64 }
		var live []chunk
		for {
			n := int64(r.Intn(30) + 1)
			start, ok := fl.Alloc(n)
			if !ok {
				break
			}
			live = append(live, chunk{start, n})
		}
		r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		for _, c := range live {
			fl.Free(c.start, c.n)
		}
		fl.checkInvariants()
		return fl.FreeBlocks() == total && largestExtent(fl) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFreeListAllocFree(b *testing.B) {
	fl := NewFreeList(1 << 20)
	r := rand.New(rand.NewSource(1))
	type chunk struct{ start, n int64 }
	var live []chunk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Intn(2) == 0 || len(live) == 0 {
			n := int64(r.Intn(64) + 1)
			if start, ok := fl.Alloc(n); ok {
				live = append(live, chunk{start, n})
			}
		} else {
			j := r.Intn(len(live))
			c := live[j]
			live = append(live[:j], live[j+1:]...)
			fl.Free(c.start, c.n)
		}
	}
}

// largestExtent is the size of the list's largest contiguous free region.
func largestExtent(f *FreeList) int64 {
	var largest int64
	for _, e := range f.extents {
		largest = max(largest, e.count)
	}
	return largest
}
