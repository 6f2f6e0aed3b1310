package longlist

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dualindex/internal/directory"
	"dualindex/internal/disk"
	"dualindex/internal/postings"
)

const testBP = 10 // postings per block in count-only tests

func newManager(t *testing.T, p Policy, disks int) (*Manager, *disk.Array) {
	t.Helper()
	geo := disk.Geometry{NumDisks: disks, BlocksPerDisk: 4096, BlockSize: 512}
	a, err := disk.NewArray(geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManagerCodec(p, a, directory.New(), testBP, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, a
}

func TestNewManagerValidation(t *testing.T) {
	geo := disk.Geometry{NumDisks: 1, BlocksPerDisk: 100, BlockSize: 512}
	a, _ := disk.NewArray(geo, nil)
	if _, err := NewManagerCodec(UpdateOptimized(), a, directory.New(), 0, nil); err == nil {
		t.Error("zero blockPosting accepted")
	}
	s, _ := disk.NewArray(geo, disk.NewMemStore(1, 512))
	if _, err := NewManagerCodec(UpdateOptimized(), s, directory.New(), 10, nil); err == nil {
		t.Error("store with mismatched blockPosting accepted")
	}
	if _, err := NewManagerCodec(UpdateOptimized(), s, directory.New(), 512/PostingBytes, nil); err != nil {
		t.Errorf("valid store config rejected: %v", err)
	}
}

func TestNewZeroNeverReads(t *testing.T) {
	m, a := newManager(t, Policy{Style: StyleNew, Limit: LimitZero}, 2)
	for i := 0; i < 10; i++ {
		if err := m.Append(1, 7, nil); err != nil {
			t.Fatal(err)
		}
	}
	if a.ReadOps() != 0 {
		t.Errorf("new 0 performed %d reads", a.ReadOps())
	}
	if a.WriteOps() != 10 {
		t.Errorf("writes = %d, want 10", a.WriteOps())
	}
	if got := chunkCount(m.dir); got != 10 {
		t.Errorf("chunks = %d, want 10 (one per update)", got)
	}
	if m.Stats().InPlace != 0 {
		t.Error("new 0 updated in place")
	}
}

func TestNewZInPlaceUsesBlockSlack(t *testing.T) {
	// Alloc constant k=0: reserved space comes only from block rounding.
	m, a := newManager(t, Policy{Style: StyleNew, Limit: LimitZ, Alloc: AllocConstant, K: 0}, 1)
	if err := m.Append(1, 6, nil); err != nil { // 1 block, capacity 10, z=4
		t.Fatal(err)
	}
	r0, w0 := a.ReadOps(), a.WriteOps()
	if err := m.Append(1, 4, nil); err != nil { // fits z exactly → in place
		t.Fatal(err)
	}
	if a.ReadOps() != r0+1 || a.WriteOps() != w0+1 {
		t.Errorf("in-place update cost %d reads %d writes, want 1 and 1", a.ReadOps()-r0, a.WriteOps()-w0)
	}
	if m.Stats().InPlace != 1 {
		t.Errorf("InPlace = %d", m.Stats().InPlace)
	}
	if chunkCount(m.dir) != 1 {
		t.Errorf("chunks = %d, want 1", chunkCount(m.dir))
	}
	// Now the chunk is full: the next update cannot go in place.
	if err := m.Append(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	if chunkCount(m.dir) != 2 {
		t.Errorf("chunks = %d, want 2", chunkCount(m.dir))
	}
}

func TestNewZConstantReservedSpace(t *testing.T) {
	m, _ := newManager(t, Policy{Style: StyleNew, Limit: LimitZ, Alloc: AllocConstant, K: 25}, 1)
	if err := m.Append(1, 5, nil); err != nil {
		t.Fatal(err)
	}
	last, _ := m.dir.LastChunk(1)
	if last.Blocks != 3 { // ceil((5+25)/10)
		t.Errorf("blocks = %d, want 3", last.Blocks)
	}
	if last.Free() != 25 {
		t.Errorf("free = %d, want 25", last.Free())
	}
}

func TestBlockAllocRoundsToMultiples(t *testing.T) {
	m, _ := newManager(t, Policy{Style: StyleNew, Limit: LimitZ, Alloc: AllocBlock, K: 4}, 1)
	if err := m.Append(1, 45, nil); err != nil { // needs 5 blocks → rounds to 8
		t.Fatal(err)
	}
	last, _ := m.dir.LastChunk(1)
	if last.Blocks != 8 {
		t.Errorf("blocks = %d, want 8", last.Blocks)
	}
}

func TestProportionalAllocReserves(t *testing.T) {
	m, _ := newManager(t, Policy{Style: StyleNew, Limit: LimitZ, Alloc: AllocProportional, K: 2}, 1)
	if err := m.Append(1, 30, nil); err != nil {
		t.Fatal(err)
	}
	last, _ := m.dir.LastChunk(1)
	if last.Blocks != 6 { // f(30) = 60 postings = 6 blocks
		t.Errorf("blocks = %d, want 6", last.Blocks)
	}
	// A same-size second update fits the reserved space in place.
	if err := m.Append(1, 30, nil); err != nil {
		t.Fatal(err)
	}
	if m.Stats().InPlace != 1 || chunkCount(m.dir) != 1 {
		t.Errorf("InPlace=%d chunks=%d", m.Stats().InPlace, chunkCount(m.dir))
	}
}

func TestWholeStyleSingleChunkInvariant(t *testing.T) {
	m, a := newManager(t, Policy{Style: StyleWhole, Limit: LimitZero}, 3)
	r := rand.New(rand.NewSource(7))
	var total int64
	for i := 0; i < 40; i++ {
		c := int64(r.Intn(30) + 1)
		total += c
		if err := m.Append(2, c, nil); err != nil {
			t.Fatal(err)
		}
		if got := len(m.dir.Chunks(2)); got != 1 {
			t.Fatalf("whole list has %d chunks after update %d", got, i)
		}
		m.EndBatch()
	}
	if m.dir.Postings(2) != total {
		t.Errorf("postings = %d, want %d", m.dir.Postings(2), total)
	}
	if got := m.dir.AvgReadsPerList(); got != 1.0 {
		t.Errorf("whole AvgReadsPerList = %v, want 1", got)
	}
	// Whole: one read and one write per append (after creation).
	if a.ReadOps() != 39 || a.WriteOps() != 40 {
		t.Errorf("ops r=%d w=%d, want 39/40", a.ReadOps(), a.WriteOps())
	}
}

func TestWholeReleaseDeferredToEndBatch(t *testing.T) {
	m, a := newManager(t, Policy{Style: StyleWhole, Limit: LimitZero}, 1)
	if err := m.Append(1, 10, nil); err != nil {
		t.Fatal(err)
	}
	freeAfterCreate := a.FreeBlocks()
	if err := m.Append(1, 10, nil); err != nil {
		t.Fatal(err)
	}
	// Old 1-block chunk is on RELEASE, new 2-block chunk allocated.
	if m.PendingReleases() != 1 {
		t.Fatalf("pending releases = %d", m.PendingReleases())
	}
	if a.FreeBlocks() != freeAfterCreate-2 {
		t.Errorf("free = %d, want %d", a.FreeBlocks(), freeAfterCreate-2)
	}
	m.EndBatch()
	if a.FreeBlocks() != freeAfterCreate-1 {
		t.Errorf("after EndBatch free = %d, want %d", a.FreeBlocks(), freeAfterCreate-1)
	}
	if m.PendingReleases() != 0 {
		t.Error("EndBatch left releases")
	}
}

func TestFillStyleExtents(t *testing.T) {
	m, _ := newManager(t, Policy{Style: StyleFill, Limit: LimitZero, ExtentBlocks: 2}, 3)
	// 2-block extents hold 20 postings each; 45 postings need 3 extents.
	if err := m.Append(1, 45, nil); err != nil {
		t.Fatal(err)
	}
	cs := m.dir.Chunks(1)
	if len(cs) != 3 {
		t.Fatalf("chunks = %d, want 3", len(cs))
	}
	for i, c := range cs {
		if c.Blocks != 2 || c.Capacity != 20 {
			t.Errorf("chunk %d: %+v", i, c)
		}
	}
	if cs[0].Postings != 20 || cs[1].Postings != 20 || cs[2].Postings != 5 {
		t.Errorf("fill distribution: %d/%d/%d", cs[0].Postings, cs[1].Postings, cs[2].Postings)
	}
	// Extents go to successive disks round-robin ("a new chunk will be
	// started on a new disk").
	if cs[0].Disk == cs[1].Disk || cs[1].Disk == cs[2].Disk {
		t.Errorf("extents not striped: disks %d,%d,%d", cs[0].Disk, cs[1].Disk, cs[2].Disk)
	}
}

func TestFillZInPlace(t *testing.T) {
	m, _ := newManager(t, Policy{Style: StyleFill, Limit: LimitZ, ExtentBlocks: 2}, 1)
	if err := m.Append(1, 15, nil); err != nil { // one extent, 5 free
		t.Fatal(err)
	}
	if err := m.Append(1, 5, nil); err != nil { // fits → in place
		t.Fatal(err)
	}
	if m.Stats().InPlace != 1 || chunkCount(m.dir) != 1 {
		t.Fatalf("InPlace=%d chunks=%d", m.Stats().InPlace, chunkCount(m.dir))
	}
	// Over-sized update starts new extents; it is never split into the
	// existing chunk's free space (Figure 2 consequence).
	if err := m.Append(1, 25, nil); err != nil {
		t.Fatal(err)
	}
	cs := m.dir.Chunks(1)
	if len(cs) != 3 || cs[0].Postings != 20 {
		t.Fatalf("chunks after big update: %+v", cs)
	}
}

func TestRoundRobinDiskAssignment(t *testing.T) {
	m, _ := newManager(t, Policy{Style: StyleNew, Limit: LimitZero}, 4)
	for w := postings.WordID(0); w < 8; w++ {
		if err := m.Append(w, 5, nil); err != nil {
			t.Fatal(err)
		}
	}
	for w := postings.WordID(0); w < 8; w++ {
		cs := m.dir.Chunks(w)
		if cs[0].Disk != int(w)%4 {
			t.Errorf("word %d on disk %d, want %d", w, cs[0].Disk, w%4)
		}
	}
}

func TestAllocSpillsToOtherDisks(t *testing.T) {
	geo := disk.Geometry{NumDisks: 2, BlocksPerDisk: 4, BlockSize: 512}
	a, _ := disk.NewArray(geo, nil)
	m, err := NewManagerCodec(Policy{Style: StyleNew, Limit: LimitZero}, a, directory.New(), testBP, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fill disk 0 completely (round robin starts there).
	if err := m.Append(1, 40, nil); err != nil {
		t.Fatal(err)
	}
	// Next chunk would round-robin to disk 1; fill it too.
	if err := m.Append(2, 40, nil); err != nil {
		t.Fatal(err)
	}
	// Both disks full now.
	if err := m.Append(3, 10, nil); err == nil {
		t.Fatal("append on full array succeeded")
	}
}

func TestAppendValidation(t *testing.T) {
	m, _ := newManager(t, UpdateOptimized(), 1)
	if err := m.Append(1, 0, nil); err == nil {
		t.Error("zero count accepted")
	}
	geo := disk.Geometry{NumDisks: 1, BlocksPerDisk: 1000, BlockSize: 512}
	a, _ := disk.NewArray(geo, disk.NewMemStore(1, 512))
	sm, _ := NewManagerCodec(UpdateOptimized(), a, directory.New(), 64, nil)
	if err := sm.Append(1, 5, nil); err == nil {
		t.Error("store mode accepted nil list")
	}
}

func storeManager(t *testing.T, p Policy) *Manager {
	t.Helper()
	geo := disk.Geometry{NumDisks: 3, BlocksPerDisk: 8192, BlockSize: 256}
	a, err := disk.NewArray(geo, disk.NewMemStore(geo.NumDisks, geo.BlockSize))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManagerCodec(p, a, directory.New(), int64(geo.BlockSize/PostingBytes), nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func seq(start, n int) *postings.List {
	docs := make([]postings.DocID, n)
	for i := range docs {
		docs[i] = postings.DocID(start + i)
	}
	return postings.FromDocs(docs)
}

func TestStoreModeRoundtripAllPolicies(t *testing.T) {
	policies := append(FigurePolicies(), NewRecommended(), QueryOptimized(), FillRecommended())
	for _, p := range policies {
		t.Run(p.String(), func(t *testing.T) {
			m := storeManager(t, p)
			want := &postings.List{}
			next := 1
			r := rand.New(rand.NewSource(3))
			for i := 0; i < 25; i++ {
				n := r.Intn(100) + 1
				l := seq(next, n)
				next += n
				if err := m.Append(9, int64(n), l); err != nil {
					t.Fatal(err)
				}
				if err := want.Append(l); err != nil {
					t.Fatal(err)
				}
				if i%5 == 4 {
					m.EndBatch()
				}
			}
			got, reads, err := m.ReadList(9)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Docs(), want.Docs()) {
				t.Fatalf("policy %v: read %d postings, want %d", p, got.Len(), want.Len())
			}
			if reads != len(m.dir.Chunks(9)) {
				t.Errorf("reads = %d, chunk count = %d", reads, len(m.dir.Chunks(9)))
			}
		})
	}
}

func TestRewriteShrinksList(t *testing.T) {
	m := storeManager(t, NewRecommended())
	if err := m.Append(4, 100, seq(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(4, 100, seq(200, 100)); err != nil {
		t.Fatal(err)
	}
	kept := seq(1, 30)
	if err := m.Rewrite(4, 30, kept); err != nil {
		t.Fatal(err)
	}
	m.EndBatch()
	got, _, err := m.ReadList(4)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Docs(), kept.Docs()) {
		t.Fatalf("after rewrite got %d postings", got.Len())
	}
	if len(m.dir.Chunks(4)) != 1 {
		t.Error("rewrite left multiple chunks")
	}
	// Rewrite to empty removes the word.
	if err := m.Rewrite(4, 0, nil); err != nil {
		t.Fatal(err)
	}
	m.EndBatch()
	if m.dir.Has(4) {
		t.Error("empty rewrite kept the word")
	}
}

func TestInPlaceFracStat(t *testing.T) {
	m, _ := newManager(t, Policy{Style: StyleNew, Limit: LimitZ, Alloc: AllocProportional, K: 2}, 1)
	m.Append(1, 10, nil) // creation
	m.Append(1, 10, nil) // in place (reserved 10)
	m.Append(1, 30, nil) // too big → new chunk
	st := m.Stats()
	if st.Appends != 2 || st.InPlace != 1 || st.Creations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.InPlaceFrac() != 0.5 {
		t.Errorf("InPlaceFrac = %v", st.InPlaceFrac())
	}
	if (Stats{}).InPlaceFrac() != 0 {
		t.Error("empty InPlaceFrac not 0")
	}
}

func TestQuickAllPoliciesAgreeOnContent(t *testing.T) {
	// Property: whatever the policy, the postings read back equal the
	// postings appended — policies differ in layout, never in content.
	policies := append(FigurePolicies(), NewRecommended(), QueryOptimized())
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		type app struct {
			w postings.WordID
			l *postings.List
		}
		var script []app
		next := map[postings.WordID]int{}
		for i := 0; i < 30; i++ {
			w := postings.WordID(r.Intn(5))
			n := r.Intn(60) + 1
			start := next[w] + 1
			next[w] = start + n
			script = append(script, app{w, seq(start, n)})
		}
		var reference map[postings.WordID]*postings.List
		for _, p := range policies {
			geo := disk.Geometry{NumDisks: 2, BlocksPerDisk: 16384, BlockSize: 256}
			a, _ := disk.NewArray(geo, disk.NewMemStore(2, 256))
			m, err := NewManagerCodec(p, a, directory.New(), 32, nil)
			if err != nil {
				return false
			}
			got := map[postings.WordID]*postings.List{}
			for i, s := range script {
				if err := m.Append(s.w, int64(s.l.Len()), s.l); err != nil {
					return false
				}
				if i%10 == 9 {
					m.EndBatch()
				}
			}
			m.EndBatch()
			for w := range next {
				l, _, err := m.ReadList(w)
				if err != nil {
					return false
				}
				got[w] = l
			}
			if reference == nil {
				reference = got
				continue
			}
			for w, l := range got {
				if !slices.Equal(l.Docs(), reference[w].Docs()) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDirectoryDiskConsistency(t *testing.T) {
	// Property: allocated blocks recorded in the directory plus free blocks
	// plus pending releases account for every block of the array.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		geo := disk.Geometry{NumDisks: 2, BlocksPerDisk: 8192, BlockSize: 512}
		a, _ := disk.NewArray(geo, nil)
		p := FigurePolicies()[r.Intn(6)]
		m, err := NewManagerCodec(p, a, directory.New(), testBP, nil)
		if err != nil {
			return false
		}
		for i := 0; i < 100; i++ {
			if err := m.Append(postings.WordID(r.Intn(10)), int64(r.Intn(40)+1), nil); err != nil {
				return false
			}
			if r.Intn(10) == 0 {
				m.EndBatch()
			}
		}
		m.EndBatch()
		total := int64(geo.NumDisks) * geo.BlocksPerDisk
		return a.FreeBlocks()+allocatedBlocks(m.dir) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendNewZ(b *testing.B) {
	geo := disk.Geometry{NumDisks: 4, BlocksPerDisk: 1 << 24, BlockSize: 4096}
	a, _ := disk.NewArray(geo, nil)
	m, _ := NewManagerCodec(NewRecommended(), a, directory.New(), 400, nil)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Append(postings.WordID(r.Intn(5000)), int64(r.Intn(50)+1), nil); err != nil {
			b.Fatal(err)
		}
		if i%1000 == 999 {
			m.EndBatch()
		}
	}
}

func TestAdaptiveAllocReservesLastUpdate(t *testing.T) {
	p := Policy{Style: StyleNew, Limit: LimitZ, Alloc: AllocAdaptive, K: 1}
	m, _ := newManager(t, p, 1)
	// First update of 20 postings: reserve another 20 → 4 blocks.
	if err := m.Append(1, 20, nil); err != nil {
		t.Fatal(err)
	}
	last, _ := m.dir.LastChunk(1)
	if last.Blocks != 4 || last.Free() != 20 {
		t.Fatalf("chunk = %+v, want 4 blocks with 20 free", last)
	}
	// A same-size second update fits in place.
	if err := m.Append(1, 20, nil); err != nil {
		t.Fatal(err)
	}
	if m.Stats().InPlace != 1 || chunkCount(m.dir) != 1 {
		t.Fatalf("InPlace=%d chunks=%d", m.Stats().InPlace, chunkCount(m.dir))
	}
	// The chunk is now full; the third update opens a new chunk sized for
	// itself plus one more like it.
	if err := m.Append(1, 10, nil); err != nil {
		t.Fatal(err)
	}
	cs := m.dir.Chunks(1)
	if len(cs) != 2 || cs[1].Blocks != 2 {
		t.Fatalf("chunks = %+v", cs)
	}
}

func TestAdaptiveWholeReservesOneUpdateNotWholeList(t *testing.T) {
	adaptive := Policy{Style: StyleWhole, Limit: LimitZ, Alloc: AllocAdaptive, K: 1}
	prop := Policy{Style: StyleWhole, Limit: LimitZ, Alloc: AllocProportional, K: 1.5}
	am, _ := newManager(t, adaptive, 1)
	pm, _ := newManager(t, prop, 1)
	for i := 0; i < 20; i++ {
		if err := am.Append(1, 30, nil); err != nil {
			t.Fatal(err)
		}
		if err := pm.Append(1, 30, nil); err != nil {
			t.Fatal(err)
		}
		am.EndBatch()
		pm.EndBatch()
	}
	// Same postings; the adaptive variant wastes at most ~one update's worth
	// of reserved space while proportional wastes half the list.
	au := am.dir.Utilization()
	pu := pm.dir.Utilization()
	if au <= pu {
		t.Errorf("adaptive utilization %.3f not above proportional %.3f", au, pu)
	}
	if am.dir.Postings(1) != pm.dir.Postings(1) {
		t.Error("posting counts diverged")
	}
}

func TestAdaptiveNormalizeDefaultsK(t *testing.T) {
	p := Policy{Style: StyleNew, Limit: LimitZ, Alloc: AllocAdaptive}.Normalize()
	if p.K != 1 {
		t.Fatalf("adaptive K defaulted to %v, want 1", p.K)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.String() != "new z adaptive 1" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestReadListAbsentWord(t *testing.T) {
	m, _ := newManager(t, UpdateOptimized(), 1)
	l, reads, err := m.ReadList(42)
	if err != nil {
		t.Fatal(err)
	}
	if reads != 0 || l.Len() != 0 {
		t.Fatalf("absent word read %d ops, %d postings", reads, l.Len())
	}
}

func TestQuickWholeOpCountIndependentOfLimit(t *testing.T) {
	// The paper draws whole 0 and whole z as one curve in Figure 8: the op
	// count is identical because both variants pay one read and one write
	// per append.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		type app struct {
			w postings.WordID
			n int64
		}
		var script []app
		for i := 0; i < 60; i++ {
			script = append(script, app{postings.WordID(r.Intn(6)), int64(r.Intn(40) + 1)})
		}
		ops := func(limit Limit) int64 {
			m, a := newManagerQuick(limit)
			for i, s := range script {
				if err := m.Append(s.w, s.n, nil); err != nil {
					return -1
				}
				if i%15 == 14 {
					m.EndBatch()
				}
			}
			m.EndBatch()
			return a.Ops()
		}
		return ops(LimitZero) == ops(LimitZ)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func newManagerQuick(limit Limit) (*Manager, *disk.Array) {
	geo := disk.Geometry{NumDisks: 2, BlocksPerDisk: 65536, BlockSize: 512}
	a, _ := disk.NewArray(geo, nil)
	m, _ := NewManagerCodec(Policy{Style: StyleWhole, Limit: limit}, a, directory.New(), testBP, nil)
	return m, a
}

// chunkCount is the number of chunks across all of d's long lists.
func chunkCount(d *directory.Dir) int {
	n := 0
	for _, w := range d.Words() {
		n += len(d.Chunks(w))
	}
	return n
}

// allocatedBlocks is the disk blocks allocated to all of d's long lists.
func allocatedBlocks(d *directory.Dir) int64 {
	var n int64
	for _, w := range d.Words() {
		for _, c := range d.Chunks(w) {
			n += c.Blocks
		}
	}
	return n
}
