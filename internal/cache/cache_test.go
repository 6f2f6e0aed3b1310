package cache

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"dualindex/internal/disk"
)

const blockSize = 256

func fill(tb testing.TB, s disk.BlockStore, d int, block int64, b byte, n int) {
	tb.Helper()
	buf := bytes.Repeat([]byte{b}, blockSize*n)
	if err := s.WriteAt(d, block, buf); err != nil {
		tb.Fatal(err)
	}
}

func readBlock(tb testing.TB, s disk.BlockStore, d int, block int64) []byte {
	tb.Helper()
	buf := make([]byte, blockSize)
	if err := s.ReadAt(d, block, buf); err != nil {
		tb.Fatal(err)
	}
	return buf
}

func TestHitMissCounters(t *testing.T) {
	inner := disk.NewMemStore(2, blockSize)
	c := New(inner, blockSize, 8)
	fill(t, c, 0, 0, 0xAA, 4)

	// Cold read of 4 blocks: 4 misses, then the same read: 4 hits.
	buf := make([]byte, 4*blockSize)
	if err := c.ReadAt(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 4 {
		t.Fatalf("after cold read: %+v", st)
	}
	if err := c.ReadAt(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 4 || st.Misses != 4 {
		t.Fatalf("after warm read: %+v", st)
	}
	if got := c.Stats().HitRate(); got != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", got)
	}
	for i := range buf {
		if buf[i] != 0xAA {
			t.Fatalf("byte %d = %#x", i, buf[i])
		}
	}
}

func TestPartialResidency(t *testing.T) {
	inner := disk.NewMemStore(1, blockSize)
	c := New(inner, blockSize, 8)
	fill(t, c, 0, 0, 0x11, 6)

	// Warm blocks 1 and 4, then read [0,6): 2 hits, 4 misses, data intact.
	readBlock(t, c, 0, 1)
	readBlock(t, c, 0, 4)
	base := c.Stats()
	buf := make([]byte, 6*blockSize)
	if err := c.ReadAt(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits-base.Hits != 2 || st.Misses-base.Misses != 4 {
		t.Fatalf("delta hits=%d misses=%d, want 2/4", st.Hits-base.Hits, st.Misses-base.Misses)
	}
	for i := range buf {
		if buf[i] != 0x11 {
			t.Fatalf("byte %d = %#x", i, buf[i])
		}
	}
}

func TestLRUEviction(t *testing.T) {
	inner := disk.NewMemStore(1, blockSize)
	c := New(inner, blockSize, 2)
	fill(t, c, 0, 0, 0x22, 4)

	readBlock(t, c, 0, 0)
	readBlock(t, c, 0, 1)
	readBlock(t, c, 0, 0) // refresh 0: LRU order is now [0, 1]
	readBlock(t, c, 0, 2) // evicts 1
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	base := c.Stats()
	readBlock(t, c, 0, 0) // still resident
	if st := c.Stats(); st.Hits-base.Hits != 1 {
		t.Fatalf("block 0 was evicted (stats %+v)", st)
	}
	base = c.Stats()
	readBlock(t, c, 0, 1) // evicted above → miss
	if st := c.Stats(); st.Misses-base.Misses != 1 {
		t.Fatalf("block 1 unexpectedly resident (stats %+v)", st)
	}
	if c.lru.Len() != 2 {
		t.Fatalf("cache holds %d blocks, want 2", c.lru.Len())
	}
}

func TestCompressedBlocksChargedEncodedSize(t *testing.T) {
	// A compressed block is mostly trailing zero padding; the cache must
	// charge only the encoded prefix, so far more than `capacity` such
	// blocks stay resident while total bytes remain within the budget.
	inner := disk.NewMemStore(1, blockSize)
	c := New(inner, blockSize, 4) // budget: 4 × 256 = 1024 bytes
	const encoded = 32            // payload per block; rest is padding
	for b := int64(0); b < 16; b++ {
		buf := make([]byte, blockSize)
		for i := 0; i < encoded; i++ {
			buf[i] = byte(b + 1)
		}
		if err := inner.WriteAt(0, b, buf); err != nil {
			t.Fatal(err)
		}
		readBlock(t, c, 0, b)
	}
	if got := c.lru.Len(); got != 16 {
		t.Fatalf("cache holds %d compressed blocks, want all 16", got)
	}
	if got := c.bytes; got != 16*encoded {
		t.Fatalf("charged %d bytes, want %d", got, 16*encoded)
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 within budget", st.Evictions)
	}
	// All 16 still serve hits, with the padding restored on the way out.
	base := c.Stats()
	for b := int64(0); b < 16; b++ {
		got := readBlock(t, c, 0, b)
		if got[0] != byte(b+1) || got[encoded-1] != byte(b+1) {
			t.Fatalf("block %d payload corrupted", b)
		}
		for i := encoded; i < blockSize; i++ {
			if got[i] != 0 {
				t.Fatalf("block %d: padding byte %d = %#x", b, i, got[i])
			}
		}
	}
	if st := c.Stats(); st.Hits-base.Hits != 16 {
		t.Fatalf("hits delta %d, want 16", st.Hits-base.Hits)
	}

	// Full (incompressible) blocks pay full price: pushing four of them
	// through a 4-block budget evicts every small block.
	for b := int64(20); b < 24; b++ {
		fill(t, inner, 0, b, 0xEE, 1)
		readBlock(t, c, 0, b)
	}
	if got := c.lru.Len(); got != 4 {
		t.Fatalf("cache holds %d blocks after full-size reads, want 4", got)
	}
	if got := c.bytes; got != 4*blockSize {
		t.Fatalf("charged %d bytes, want %d", got, 4*blockSize)
	}

	// A write that shrinks a resident block's payload releases budget.
	shrunk := make([]byte, blockSize)
	shrunk[0] = 0x77
	if err := c.WriteAt(0, 20, shrunk); err != nil {
		t.Fatal(err)
	}
	if got := c.bytes; got != 3*blockSize+1 {
		t.Fatalf("charged %d bytes after shrink, want %d", got, 3*blockSize+1)
	}
	if got := readBlock(t, c, 0, 20); got[0] != 0x77 || got[1] != 0 {
		t.Fatalf("shrunk block served wrong data: %#x %#x", got[0], got[1])
	}
}

func TestWriteThroughUpdatesResident(t *testing.T) {
	inner := disk.NewMemStore(1, blockSize)
	c := New(inner, blockSize, 8)
	fill(t, c, 0, 3, 0x33, 1)
	readBlock(t, c, 0, 3) // cache it
	fill(t, c, 0, 3, 0x44, 1)

	// The cached copy must serve the new bytes, and the inner store must
	// have them too (write-through).
	if got := readBlock(t, c, 0, 3); got[0] != 0x44 {
		t.Fatalf("cached read = %#x, want 0x44", got[0])
	}
	if got := readBlock(t, inner, 0, 3); got[0] != 0x44 {
		t.Fatalf("inner read = %#x, want 0x44", got[0])
	}
	// Writes do not allocate: an unread block stays uncached.
	fill(t, c, 0, 5, 0x55, 1)
	base := c.Stats()
	readBlock(t, c, 0, 5)
	if st := c.Stats(); st.Misses-base.Misses != 1 {
		t.Fatalf("write allocated block 5 (stats %+v)", st)
	}
}

// parkingStore is an inner store whose next ReadAt, once armed, fetches
// its bytes and then parks until released, so a test can land a write
// between a cache fill's inner read and its insert.
type parkingStore struct {
	disk.BlockStore
	armed   bool
	parked  chan struct{}
	release chan struct{}
}

func (p *parkingStore) ReadAt(d int, block int64, buf []byte) error {
	err := p.BlockStore.ReadAt(d, block, buf)
	if p.armed {
		p.armed = false
		close(p.parked)
		<-p.release
	}
	return err
}

// TestFillRacingWriteKeepsNewImage: a fill that fetched a block before a
// write to it landed must not insert its older image, or the cache serves
// stale bytes until eviction.
func TestFillRacingWriteKeepsNewImage(t *testing.T) {
	inner := &parkingStore{
		BlockStore: disk.NewMemStore(1, blockSize),
		parked:     make(chan struct{}),
		release:    make(chan struct{}),
	}
	c := New(inner, blockSize, 8)
	fill(t, c, 0, 4, 0x11, 1)
	inner.armed = true

	done := make(chan []byte)
	go func() {
		buf := make([]byte, blockSize)
		if err := c.ReadAt(0, 4, buf); err != nil {
			t.Error(err)
		}
		done <- buf
	}()
	<-inner.parked // the fill holds the old image and has not inserted it
	fill(t, c, 0, 4, 0x22, 1)
	close(inner.release)
	if got := <-done; got[0] != 0x11 {
		t.Fatalf("racing read = %#x, want the image it fetched, 0x11", got[0])
	}
	if got := readBlock(t, c, 0, 4); got[0] != 0x22 {
		t.Fatalf("read after the write = %#x, want 0x22", got[0])
	}
}

func TestZeroCapacityPassesThrough(t *testing.T) {
	inner := disk.NewMemStore(1, blockSize)
	c := New(inner, blockSize, 0)
	fill(t, c, 0, 0, 0x66, 2)
	if got := readBlock(t, c, 0, 1); got[0] != 0x66 {
		t.Fatalf("read = %#x", got[0])
	}
	if st := c.Stats(); st.Hits != 0 && st.Misses != 0 {
		t.Fatalf("disabled cache counted %+v", st)
	}
	if c.lru.Len() != 0 {
		t.Fatalf("disabled cache holds %d blocks", c.lru.Len())
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	inner := disk.NewMemStore(2, blockSize)
	c := New(inner, blockSize, 16) // small: force constant eviction
	fill(t, c, 0, 0, 0x01, 32)
	fill(t, c, 1, 0, 0x02, 32)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := g % 2
			want := byte(d + 1)
			buf := make([]byte, blockSize)
			for i := 0; i < 500; i++ {
				if g < 6 {
					// Mostly a per-disk hot set (fits the cache → hits), with
					// periodic cold blocks (misses → evictions).
					block := int64(i % 4)
					if i%5 == 0 {
						block = int64(i % 32)
					}
					if err := c.ReadAt(d, block, buf); err != nil {
						t.Error(err)
						return
					}
					if buf[0] != want {
						t.Errorf("disk %d: read %#x, want %#x", d, buf[0], want)
						return
					}
				} else {
					// Rewrite the same contents; readers must never observe
					// a torn or stale block.
					if err := c.WriteAt(d, int64(i%32), bytes.Repeat([]byte{want}, blockSize)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("expected activity in all counters: %+v", st)
	}
}

// TestBlockCostMatchesBytewise: the word-at-a-time padding scan charges
// exactly what the plain byte-at-a-time scan does — on random tails of
// zeros, all-zero blocks, and lengths that are not a multiple of eight.
func TestBlockCostMatchesBytewise(t *testing.T) {
	bytewise := func(data []byte) int {
		n := len(data)
		for n > 0 && data[n-1] == 0 {
			n--
		}
		return max(n, 1)
	}
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 512, 4096, 4099} {
		if got, want := blockCost(make([]byte, size)), bytewise(make([]byte, size)); got != want {
			t.Fatalf("all-zero %d bytes: cost %d, want %d", size, got, want)
		}
		for trial := 0; trial < 200 && size > 0; trial++ {
			data := make([]byte, size)
			content := rng.Intn(size + 1) // bytes before the zero tail
			rng.Read(data[:content])
			if content > 0 && rng.Intn(2) == 0 {
				data[content-1] = byte(1 + rng.Intn(255)) // a non-zero last byte
			}
			if got, want := blockCost(data), bytewise(data); got != want {
				t.Fatalf("%d bytes, %d before the tail: cost %d, want %d", size, content, got, want)
			}
		}
	}
}
