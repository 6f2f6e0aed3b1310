package disk

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// asyncVariants runs f against the pread store. The subtest keeps the name
// it had when the store also offered mmap reads, so its id stays stable.
func asyncVariants(t *testing.T, f func(t *testing.T)) {
	t.Run("mmap=false", f)
}

func fillPattern(buf []byte, seed byte) {
	for i := range buf {
		buf[i] = seed + byte(i)
	}
}

func TestBackendFileRoundTrip(t *testing.T) {
	asyncVariants(t, func(t *testing.T) {
		dir := t.TempDir()
		const bs = 256
		s, err := NewAsyncFileStore(dir, 2, bs)
		if err != nil {
			t.Fatal(err)
		}
		want := map[[2]int64][]byte{}
		for d := 0; d < 2; d++ {
			for _, b := range []int64{0, 1, 7, 100} {
				data := make([]byte, bs)
				fillPattern(data, byte(d*10)+byte(b))
				if err := s.WriteAt(d, b, data); err != nil {
					t.Fatal(err)
				}
				want[[2]int64{int64(d), b}] = data
			}
		}
		// Read-after-write without any Sync: the overlay must serve queued data.
		for k, data := range want {
			got := make([]byte, bs)
			if err := s.ReadAt(int(k[0]), k[1], got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("disk %d block %d differs before sync", k[0], k[1])
			}
		}
		// Never-written blocks read as zeros.
		got := make([]byte, bs)
		if err := s.ReadAt(1, 50, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, bs)) {
			t.Fatal("unwritten block is not zero")
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopen and verify durability.
		re, err := OpenAsyncFileStore(dir, 2, bs)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		for k, data := range want {
			got := make([]byte, bs)
			if err := re.ReadAt(int(k[0]), k[1], got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("disk %d block %d differs after reopen", k[0], k[1])
			}
		}
	})
}

// TestBackendFileZeroFillPastEOF: a read reaching past the end of a disk's
// file fills the rest of the caller's buffer with zeros, whatever it held
// before — raw-partition semantics for never-written blocks.
func TestBackendFileZeroFillPastEOF(t *testing.T) {
	asyncVariants(t, func(t *testing.T) {
		const bs = 64
		s, err := NewAsyncFileStore(t.TempDir(), 1, bs)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// The file ends right after block 20.
		data := bytes.Repeat([]byte{0x5C}, bs)
		if err := s.WriteAt(0, 20, data); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		got := bytes.Repeat([]byte{0xFF}, 2*bs)
		if err := s.ReadAt(0, 20, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:bs], data) || !bytes.Equal(got[bs:], make([]byte, bs)) {
			t.Fatal("read across EOF: data block lost or tail not zero-filled")
		}
		got = bytes.Repeat([]byte{0xFF}, bs)
		if err := s.ReadAt(0, 100, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, bs)) {
			t.Fatal("read past EOF not zero-filled")
		}
	})
}

func TestBackendFileOverwriteOrdering(t *testing.T) {
	// Rapid rewrites of the same block: readers must always see the newest
	// enqueued version, and the file must end with the last one.
	asyncVariants(t, func(t *testing.T) {
		dir := t.TempDir()
		const bs = 128
		s, err := NewAsyncFileStore(dir, 1, bs)
		if err != nil {
			t.Fatal(err)
		}
		// The store owns each written buffer, so every write gets a fresh one.
		var data []byte
		for i := 0; i < 500; i++ {
			data = make([]byte, bs)
			fillPattern(data, byte(i))
			if err := s.WriteAt(0, 3, data); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, bs)
			if err := s.ReadAt(0, 3, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("iteration %d: read returned a stale version", i)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, bs)
		if err := s.ReadAt(0, 3, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("final version lost after sync")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBackendFileConcurrent(t *testing.T) {
	// Writers on every disk racing readers; run under -race in CI.
	asyncVariants(t, func(t *testing.T) {
		dir := t.TempDir()
		const bs, disks = 64, 3
		s, err := NewAsyncFileStore(dir, disks, bs)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for d := 0; d < disks; d++ {
			wg.Add(2)
			go func(d int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					buf := make([]byte, bs) // the store owns each written buffer
					fillPattern(buf, byte(i))
					if err := s.WriteAt(d, int64(i%32), buf); err != nil {
						t.Error(err)
						return
					}
				}
			}(d)
			go func(d int) {
				defer wg.Done()
				buf := make([]byte, 4*bs)
				for i := 0; i < 200; i++ {
					if err := s.ReadAt(d, int64(i%28), buf); err != nil {
						t.Error(err)
						return
					}
				}
			}(d)
		}
		wg.Wait()
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBackendFileMultiBlockWrites(t *testing.T) {
	asyncVariants(t, func(t *testing.T) {
		dir := t.TempDir()
		const bs = 64
		s, err := NewAsyncFileStore(dir, 1, bs)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		run := make([]byte, 5*bs)
		fillPattern(run, 3)
		if err := s.WriteAt(0, 10, run); err != nil {
			t.Fatal(err)
		}
		// Overwrite the middle block only.
		mid := make([]byte, bs)
		fillPattern(mid, 200)
		if err := s.WriteAt(0, 12, mid); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 5*bs)
		if err := s.ReadAt(0, 10, got); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), run...)
		copy(want[2*bs:3*bs], mid)
		if !bytes.Equal(got, want) {
			t.Fatal("multi-block overlay mismatch")
		}
	})
}

func TestBackendFileChecksArguments(t *testing.T) {
	dir := t.TempDir()
	s, err := NewAsyncFileStore(dir, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteAt(5, 0, make([]byte, 64)); err == nil {
		t.Error("out-of-range disk accepted")
	}
	if err := s.ReadAt(0, 0, make([]byte, 63)); err == nil {
		t.Error("unaligned buffer accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(0, 0, make([]byte, 64)); err == nil {
		t.Error("write after close accepted")
	}
}

// TestBackendFileReleasesWrittenImage: once a write has landed, the store
// keeps no reference to its image. A 64 MiB write, synced and dropped by
// the caller, must leave the live heap where it was.
func TestBackendFileReleasesWrittenImage(t *testing.T) {
	const bs, size = 4096, 64 << 20
	s, err := NewAsyncFileStore(t.TempDir(), 1, bs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	if err := s.WriteAt(0, 0, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if after := heap(); after > before+8<<20 {
		t.Fatalf("live heap grew %d MiB after a synced 64 MiB write", (after-before)>>20)
	}
}
