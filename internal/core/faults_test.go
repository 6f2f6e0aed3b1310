package core

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"dualindex/internal/disk"
	"dualindex/internal/longlist"
	"dualindex/internal/postings"
)

// faultStore wraps a BlockStore and fails every write once a budget of
// successful operations is exhausted — a crash mid-batch. Like any
// BlockStore it must tolerate concurrent use, so the budget is guarded by
// a mutex.
type faultStore struct {
	disk.BlockStore
	mu         sync.Mutex
	writesLeft int
	failed     bool
}

var errInjected = errors.New("injected disk fault")

func (s *faultStore) WriteAt(d int, block int64, buf []byte) error {
	s.mu.Lock()
	if s.writesLeft <= 0 {
		s.failed = true
		s.mu.Unlock()
		return errInjected
	}
	s.writesLeft--
	s.mu.Unlock()
	return s.BlockStore.WriteAt(d, block, buf)
}

func (s *faultStore) didFail() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

func TestWriteFaultPropagates(t *testing.T) {
	cfg := storeConfig()
	inner := cfg.Store
	for _, budget := range []int{0, 1, 3, 7} {
		fs := &faultStore{BlockStore: inner, writesLeft: budget}
		cfg.Store = fs
		ix, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ix.ApplyUpdate([]WordUpdate{
			upd(1, 1, 2, 3),
			upd(2, 2, 4),
		})
		if fs.didFail() && err == nil {
			t.Fatalf("budget %d: injected fault swallowed", budget)
		}
		if err != nil && !errors.Is(err, errInjected) {
			t.Fatalf("budget %d: wrong error %v", budget, err)
		}
	}
}

func TestCrashMidBatchRecoversLastCheckpoint(t *testing.T) {
	// Apply two clean batches; then crash during the third. Reopening must
	// land exactly on batch 2's checkpoint, and re-applying batch 3 must
	// produce the same index as a run that never crashed.
	mk := func() (Config, *disk.MemStore) {
		geo := disk.Geometry{NumDisks: 2, BlocksPerDisk: 65536, BlockSize: 256}
		ms := disk.NewMemStore(geo.NumDisks, geo.BlockSize)
		return Config{
			Buckets:      16,
			BucketSize:   128,
			BlockPosting: int64(geo.BlockSize / longlist.PostingBytes),
			Geometry:     geo,
			Policy:       longlist.NewRecommended(),
			Store:        ms,
		}, ms
	}
	batch := func(n int) []WordUpdate {
		base := postings.DocID(n * 100)
		return []WordUpdate{
			upd(1, base+1, base+2),
			upd(postings.WordID(n+10), base+3),
		}
	}

	// Reference: clean run of batches 1-3.
	cleanCfg, _ := mk()
	clean, err := New(cleanCfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 3; n++ {
		if _, err := clean.ApplyUpdate(batch(n)); err != nil {
			t.Fatal(err)
		}
	}

	// Crashing run: batches 1-2 clean, batch 3 hits a write fault.
	crashCfg, ms := mk()
	inner := crashCfg.Store
	victim, err := New(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 2; n++ {
		if _, err := victim.ApplyUpdate(batch(n)); err != nil {
			t.Fatal(err)
		}
	}
	fs := &faultStore{BlockStore: inner, writesLeft: 1}
	victim.cfg.Store = fs
	victim.array = mustArraySwap(t, victim, fs)
	_ = ms

	if _, err := victim.ApplyUpdate(batch(3)); err == nil {
		t.Fatal("crashed batch reported success")
	}

	// "Reboot": reopen from the store (the un-faulted one — the fault hit
	// before anything of batch 3 was durably linked into the checkpoint).
	recoveredCfg := crashCfg
	recoveredCfg.Store = inner
	recovered, err := Open(recoveredCfg)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Batches() != 2 {
		t.Fatalf("recovered at batch %d, want 2", recovered.Batches())
	}
	// Re-apply the lost batch.
	if _, err := recovered.ApplyUpdate(batch(3)); err != nil {
		t.Fatal(err)
	}
	for _, w := range []postings.WordID{1, 11, 12, 13} {
		a, err := clean.GetList(w)
		if err != nil {
			t.Fatal(err)
		}
		b, err := recovered.GetList(w)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.Docs(), b.Docs()) {
			t.Fatalf("word %d: recovered index differs (%d vs %d postings)", w, b.Len(), a.Len())
		}
	}
}

// mustArraySwap rebuilds the victim's array around the faulty store while
// keeping its allocation state. Rather than surgically cloning internals, it
// rebuilds the index from the inner store's checkpoint and swaps the store —
// the same effect as the fault appearing after the last flush.
func mustArraySwap(t *testing.T, victim *Index, fs disk.BlockStore) *disk.Array {
	t.Helper()
	cfg := victim.cfg
	cfg.Store = fs
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	*victim = *re
	return re.array
}

func TestDiskFullSurfacesError(t *testing.T) {
	cfg := simConfig()
	cfg.Geometry.BlocksPerDisk = 700 // barely fits the bucket region flush
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sawErr error
	for i := 0; i < 100 && sawErr == nil; i++ {
		_, sawErr = ix.ApplyUpdate([]WordUpdate{{Word: postings.WordID(i), Count: 500}})
	}
	if sawErr == nil {
		t.Fatal("filling the disks never errored")
	}
	var noSpace disk.ErrNoSpace
	if !errors.As(sawErr, &noSpace) {
		t.Fatalf("error %v is not ErrNoSpace", sawErr)
	}
}

func TestCorruptSuperblockRejected(t *testing.T) {
	cfg := storeConfig()
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ApplyUpdate([]WordUpdate{upd(1, 1)}); err != nil {
		t.Fatal(err)
	}
	// Scribble over the superblock.
	garbage := make([]byte, cfg.Geometry.BlockSize)
	for i := range garbage {
		garbage[i] = 0xFF
	}
	if err := cfg.Store.WriteAt(0, 0, garbage); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); err == nil {
		t.Fatal("corrupt superblock accepted")
	}
}

func TestOpenDetectsGeometryMismatch(t *testing.T) {
	cfg := storeConfig()
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ApplyUpdate([]WordUpdate{upd(1, 1)}); err != nil {
		t.Fatal(err)
	}
	// Reopen claiming a different block size: the store rejects unaligned
	// access or the superblock decode fails — either way, an error, not
	// silent corruption.
	bad := cfg
	bad.Geometry.BlockSize = 128
	bad.BlockPosting = int64(128 / longlist.PostingBytes)
	if _, err := Open(bad); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestSuperblockOverflowDetected(t *testing.T) {
	// The superblock has a fixed 4-block home; its encoder must reject
	// overflow rather than corrupt neighbouring blocks. Regions are tiny, so
	// force the condition directly on the encoder.
	cfg := storeConfig()
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		ix.delRegion = append(ix.delRegion, regionChunk{disk: 1, block: int64(i), blocks: 1})
	}
	err = ix.writeSuperblock()
	if err == nil {
		t.Fatal("oversized superblock accepted")
	}
	if want := "superblock image"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}
