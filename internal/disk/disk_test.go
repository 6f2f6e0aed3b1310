package disk

import (
	"bytes"
	"testing"
	"time"
)

func testGeometry() Geometry {
	return Geometry{NumDisks: 2, BlocksPerDisk: 1024, BlockSize: 512}
}

func TestArrayAllocFreeAccounting(t *testing.T) {
	a, err := NewArray(testGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	start, err := a.Alloc(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.free[0].FreeBlocks() != 924 || a.free[1].FreeBlocks() != 1024 {
		t.Fatalf("free after alloc: %d/%d", a.free[0].FreeBlocks(), a.free[1].FreeBlocks())
	}
	a.Free(0, start, 100)
	if a.FreeBlocks() != 2048 {
		t.Fatalf("FreeBlocks = %d", a.FreeBlocks())
	}
}

func TestArrayNoSpace(t *testing.T) {
	a, err := NewArray(testGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(0, 2000); err == nil {
		t.Fatal("oversized alloc succeeded")
	} else if _, ok := err.(ErrNoSpace); !ok {
		t.Fatalf("error type %T, want ErrNoSpace", err)
	}
}

func TestArrayTraceAndCounts(t *testing.T) {
	a, _ := NewArray(testGeometry(), nil)
	if _, err := a.ReadBlocksAt(nil, 0, 0, 4, TagLong); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteBlocksAt(1, 10, 2, nil, TagBucket); err != nil {
		t.Fatal(err)
	}
	a.EndBatch()
	if a.ReadOps() != 1 || a.WriteOps() != 1 || a.ReadBlocks() != 4 || a.WriteBlocks() != 2 {
		t.Fatalf("counts: r=%d w=%d rb=%d wb=%d", a.ReadOps(), a.WriteOps(), a.ReadBlocks(), a.WriteBlocks())
	}
	tr := a.Trace()
	if tr.Len() != 2 || tr.NumBatches() != 1 {
		t.Fatalf("trace len=%d batches=%d", tr.Len(), tr.NumBatches())
	}
	ops := tr.Batch(0)
	if ops[0].Kind != Read || ops[0].Tag != TagLong || ops[1].Kind != Write || ops[1].Disk != 1 {
		t.Fatalf("trace content wrong: %+v", ops)
	}
}

func TestArrayOutOfRangePanics(t *testing.T) {
	a, _ := NewArray(testGeometry(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	_, _ = a.ReadBlocksAt(nil, 0, 1020, 10, TagLong)
}

func TestArrayWithMemStoreRoundtrip(t *testing.T) {
	geo := testGeometry()
	a, _ := NewArray(geo, NewMemStore(geo.NumDisks, geo.BlockSize))
	data := bytes.Repeat([]byte{0xAB}, geo.BlockSize)
	if err := a.WriteBlocksAt(0, 5, 2, data, TagLong); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadBlocksAt(nil, 0, 5, 2, TagLong)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*geo.BlockSize {
		t.Fatalf("read %d bytes", len(got))
	}
	if !bytes.Equal(got[:geo.BlockSize], data) {
		t.Error("first block mismatch")
	}
	for _, b := range got[geo.BlockSize:] {
		if b != 0 {
			t.Fatal("zero padding missing")
		}
	}
}

// TestStageThenCommit pins the write plan: a staged image is what reads see
// at once, overlaid block by block on the store, the newest staging of a
// block wins, and the store receives the plan only at Commit.
func TestStageThenCommit(t *testing.T) {
	geo := testGeometry()
	ms := NewMemStore(geo.NumDisks, geo.BlockSize)
	a, _ := NewArray(geo, ms)
	old := bytes.Repeat([]byte{1}, 3*geo.BlockSize)
	if err := a.WriteBlocksAt(0, 10, 3, old, TagLong); err != nil {
		t.Fatal(err)
	}
	if err := a.Stage(0, 11, 2, bytes.Repeat([]byte{2}, geo.BlockSize), TagLong); err != nil {
		t.Fatal(err)
	}
	if err := a.Stage(0, 12, 1, []byte{3}, TagLong); err != nil {
		t.Fatal(err)
	}
	if err := a.Stage(1, 0, 1, []byte{4}, TagBucket); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 3*geo.BlockSize)
	copy(want, old[:geo.BlockSize])
	copy(want[geo.BlockSize:], bytes.Repeat([]byte{2}, geo.BlockSize))
	want[2*geo.BlockSize] = 3
	got, err := a.ReadBlocksAt(nil, 0, 10, 3, TagLong)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read before commit does not see the staged images")
	}
	stored := make([]byte, 3*geo.BlockSize)
	if err := ms.ReadAt(0, 10, stored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, old) {
		t.Fatal("staged images reached the store before Commit")
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ms.ReadAt(0, 10, stored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, want) {
		t.Fatal("store after Commit differs from the plan")
	}
	if err := ms.ReadAt(1, 0, stored[:geo.BlockSize]); err != nil || stored[0] != 4 {
		t.Fatalf("disk 1 step not written (%v)", err)
	}
	if a.WriteOps() != 4 {
		t.Fatalf("%d writes recorded, want 4", a.WriteOps())
	}
}

// TestStageWritesOccupiedPrefix: Stage records the whole run in the trace
// but hands the store only the blocks its data occupies, the last one
// zero-padded; the rest of the run keeps what it held, and a stage with no
// data writes nothing.
func TestStageWritesOccupiedPrefix(t *testing.T) {
	geo := testGeometry()
	bs := geo.BlockSize
	ms := NewMemStore(geo.NumDisks, bs)
	a, _ := NewArray(geo, ms)
	old := bytes.Repeat([]byte{0xAA}, 5*bs)
	if err := a.WriteBlocksAt(0, 10, 5, old, TagBucket); err != nil {
		t.Fatal(err)
	}
	if err := a.Stage(0, 10, 5, bytes.Repeat([]byte{7}, bs+bs/2), TagBucket); err != nil {
		t.Fatal(err)
	}
	if err := a.Stage(1, 10, 5, nil, TagBucket); err != nil {
		t.Fatal(err)
	}
	if err := a.Stage(0, 20, 1, make([]byte, bs+1), TagBucket); err == nil {
		t.Fatal("data longer than its run accepted")
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{7}, bs+bs/2), make([]byte, bs/2)...)
	want = append(want, old[2*bs:]...)
	got := make([]byte, 5*bs)
	if err := ms.ReadAt(0, 10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("store does not hold the occupied prefix over the run's old tail")
	}
	if n := len(ms.disks[1]); n != 0 {
		t.Fatalf("a stage with no data wrote %d blocks", n)
	}
	for _, op := range a.Trace().Ops()[1:3] {
		if op.Kind != Write || op.Count != 5 {
			t.Fatalf("stage recorded as %+v, want a 5-block write", op)
		}
	}
}

func TestStoreValidation(t *testing.T) {
	s := NewMemStore(1, 512)
	if err := s.WriteAt(0, 0, make([]byte, 100)); err == nil {
		t.Error("unaligned write accepted")
	}
	if err := s.WriteAt(5, 0, make([]byte, 512)); err == nil {
		t.Error("bad disk accepted")
	}
	if err := s.ReadAt(0, -1, make([]byte, 512)); err == nil {
		t.Error("negative block accepted")
	}
}

func TestTraceTextRoundtrip(t *testing.T) {
	tr := &Trace{}
	tr.Append(Op{Kind: Write, Disk: 0, Block: 0, Count: 3, Tag: TagBucket})
	tr.Append(Op{Kind: Read, Disk: 2, Block: 55, Count: 1, Tag: TagLong})
	tr.EndBatch()
	tr.Append(Op{Kind: Write, Disk: 1, Block: 7, Count: 9, Tag: TagDirectory})
	tr.EndBatch()

	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || got.NumBatches() != tr.NumBatches() {
		t.Fatalf("roundtrip: len=%d batches=%d", got.Len(), got.NumBatches())
	}
	for i, op := range got.Ops() {
		if op != tr.Ops()[i] {
			t.Errorf("op %d: %+v != %+v", i, op, tr.Ops()[i])
		}
	}
}

func TestReadTextRejectsGarbage(t *testing.T) {
	if _, err := ReadText(bytes.NewBufferString("scribble on disk 0\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadText(bytes.NewBufferString("jump long disk 0 block 1 size 1\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestProfileMonotonicity(t *testing.T) {
	p := Seagate1993()
	cap := int64(262_144)
	if p.SeekTime(0, cap) != 0 {
		t.Error("zero-distance seek should be free")
	}
	last := time.Duration(0)
	for _, d := range []int64{1, 100, 10_000, 100_000, cap} {
		s := p.SeekTime(d, cap)
		if s < last {
			t.Errorf("seek not monotonic at %d", d)
		}
		last = s
	}
	if p.SeekTime(cap, cap) != p.MaxSeek {
		t.Errorf("full-stroke seek %v != MaxSeek %v", p.SeekTime(cap, cap), p.MaxSeek)
	}
	if got := p.RotationalLatency(); got != time.Minute/5400/2 {
		t.Errorf("rotational latency %v", got)
	}
	if p.TransferTime(2_500_000) != time.Second {
		t.Errorf("transfer of one rate-second = %v", p.TransferTime(2_500_000))
	}
}

func TestProfilesOrdered(t *testing.T) {
	cap := int64(262_144)
	slow, fast, optical := Seagate1993(), FastSCSI1995(), Optical1993()
	if fast.AvgSeek(cap) >= slow.AvgSeek(cap) {
		t.Error("fast disk seeks slower than 1993 disk")
	}
	if optical.AvgSeek(cap) <= slow.AvgSeek(cap) {
		t.Error("optical disk seeks faster than magnetic")
	}
}

func TestExerciserCoalescing(t *testing.T) {
	geo := Geometry{NumDisks: 1, BlocksPerDisk: 10_000, BlockSize: 4096}
	e := NewExerciser(geo)
	e.BufferBlocks = 8

	tr := &Trace{}
	// Five adjacent writes: coalesce into ceil(10/8)=2 ops.
	for i := int64(0); i < 5; i++ {
		tr.Append(Op{Kind: Write, Disk: 0, Block: i * 2, Count: 2, Tag: TagLong})
	}
	tr.EndBatch()
	res := e.Run(tr)
	if got := res.Batches[0].CoalescedOps; got != 2 {
		t.Errorf("coalesced ops = %d, want 2", got)
	}

	// A read interleaved between adjacent writes prevents coalescing across it.
	tr2 := &Trace{}
	tr2.Append(Op{Kind: Write, Disk: 0, Block: 0, Count: 2, Tag: TagLong})
	tr2.Append(Op{Kind: Read, Disk: 0, Block: 100, Count: 1, Tag: TagLong})
	tr2.Append(Op{Kind: Write, Disk: 0, Block: 2, Count: 2, Tag: TagLong})
	tr2.EndBatch()
	res2 := e.Run(tr2)
	if got := res2.Batches[0].CoalescedOps; got != 3 {
		t.Errorf("interleaved coalesced ops = %d, want 3", got)
	}
}

func TestExerciserParallelDisks(t *testing.T) {
	geo := Geometry{NumDisks: 2, BlocksPerDisk: 10_000, BlockSize: 4096}
	e := NewExerciser(geo)

	// The same operations on one disk vs spread over two: spreading must be
	// faster because the disks are serviced by independent processes.
	one := &Trace{}
	two := &Trace{}
	for i := int64(0); i < 20; i++ {
		one.Append(Op{Kind: Write, Disk: 0, Block: i * 379, Count: 1, Tag: TagLong})
		two.Append(Op{Kind: Write, Disk: int(i % 2), Block: i * 379, Count: 1, Tag: TagLong})
	}
	one.EndBatch()
	two.EndBatch()
	t1 := e.Run(one).Total()
	t2 := e.Run(two).Total()
	if t2 >= t1 {
		t.Errorf("two disks (%v) not faster than one (%v)", t2, t1)
	}
}

func TestExerciserSequentialBeatsScattered(t *testing.T) {
	geo := Geometry{NumDisks: 1, BlocksPerDisk: 100_000, BlockSize: 4096}
	e := NewExerciser(geo)
	seq := &Trace{}
	scat := &Trace{}
	for i := int64(0); i < 50; i++ {
		seq.Append(Op{Kind: Write, Disk: 0, Block: i * 4, Count: 4, Tag: TagLong})
		scat.Append(Op{Kind: Write, Disk: 0, Block: ((i * 7919) % 25000) * 4, Count: 4, Tag: TagLong})
	}
	seq.EndBatch()
	scat.EndBatch()
	ts := e.Run(seq).Total()
	tc := e.Run(scat).Total()
	if ts*4 >= tc {
		t.Errorf("sequential (%v) not ≫ faster than scattered (%v)", ts, tc)
	}
}

func TestExerciserEmptyTrace(t *testing.T) {
	e := NewExerciser(testGeometry())
	res := e.Run(&Trace{})
	if len(res.Batches) != 0 || res.Total() != 0 {
		t.Fatalf("empty trace produced %+v", res)
	}
}

func BenchmarkExerciserRun(b *testing.B) {
	geo := DefaultGeometry()
	e := NewExerciser(geo)
	tr := &Trace{}
	for i := int64(0); i < 10_000; i++ {
		tr.Append(Op{Kind: Write, Disk: int(i % 4), Block: (i * 997) % geo.BlocksPerDisk, Count: 1, Tag: TagLong})
		if i%200 == 199 {
			tr.EndBatch()
		}
	}
	tr.EndBatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(tr)
	}
}

func TestExerciserPerDiskAccounting(t *testing.T) {
	geo := Geometry{NumDisks: 3, BlocksPerDisk: 10_000, BlockSize: 4096}
	e := NewExerciser(geo)
	tr := &Trace{}
	// Disk 0 gets 10 scattered ops; disks 1-2 get one each: disk 0 must be
	// the batch's critical path.
	for i := int64(0); i < 10; i++ {
		tr.Append(Op{Kind: Write, Disk: 0, Block: (i * 997) % 9000, Count: 1, Tag: TagLong})
	}
	tr.Append(Op{Kind: Write, Disk: 1, Block: 5, Count: 1, Tag: TagLong})
	tr.Append(Op{Kind: Write, Disk: 2, Block: 5, Count: 1, Tag: TagLong})
	tr.EndBatch()
	res := e.Run(tr)
	b := res.Batches[0]
	if len(b.PerDisk) != 3 {
		t.Fatalf("PerDisk = %v", b.PerDisk)
	}
	if b.PerDisk[0] <= b.PerDisk[1] || b.PerDisk[0] <= b.PerDisk[2] {
		t.Errorf("disk 0 not the critical path: %v", b.PerDisk)
	}
	if b.Elapsed != b.PerDisk[0] {
		t.Errorf("Elapsed %v != busiest disk %v", b.Elapsed, b.PerDisk[0])
	}
	if b.Ops != 12 {
		t.Errorf("Ops = %d", b.Ops)
	}
}

func TestExerciserUnlimitedBuffer(t *testing.T) {
	geo := Geometry{NumDisks: 1, BlocksPerDisk: 100_000, BlockSize: 4096}
	e := NewExerciser(geo)
	e.BufferBlocks = 0 // unlimited coalescing
	tr := &Trace{}
	for i := int64(0); i < 1000; i++ {
		tr.Append(Op{Kind: Write, Disk: 0, Block: i, Count: 1, Tag: TagLong})
	}
	tr.EndBatch()
	res := e.Run(tr)
	if got := res.Batches[0].CoalescedOps; got != 1 {
		t.Errorf("unlimited buffer coalesced to %d ops, want 1", got)
	}
}

func TestGeometryBlocksFor(t *testing.T) {
	g := Geometry{BlockSize: 4096}
	cases := []struct {
		bytes, want int64
	}{{0, 0}, {-5, 0}, {1, 1}, {4096, 1}, {4097, 2}, {8192, 2}}
	for _, c := range cases {
		if got := g.BlocksFor(c.bytes); got != c.want {
			t.Errorf("BlocksFor(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestFreeListReserve(t *testing.T) {
	f := NewFreeList(100)
	if err := f.Reserve(10, 20); err != nil {
		t.Fatal(err)
	}
	if f.FreeBlocks() != 80 {
		t.Fatalf("free = %d", f.FreeBlocks())
	}
	// Overlapping reserve fails; adjacent succeeds.
	if err := f.Reserve(25, 10); err == nil {
		t.Fatal("overlapping reserve accepted")
	}
	if err := f.Reserve(30, 5); err != nil {
		t.Fatal(err)
	}
	if err := f.Reserve(-1, 2); err == nil {
		t.Fatal("negative reserve accepted")
	}
	if err := f.Reserve(99, 5); err == nil {
		t.Fatal("out-of-range reserve accepted")
	}
	// First-fit skips the reserved holes.
	start, ok := f.Alloc(10)
	if !ok || start != 0 {
		t.Fatalf("Alloc = %d, %v", start, ok)
	}
	f.Free(10, 20)
	f.Free(30, 5)
	f.checkInvariants()
}

// TestReadRuns: a multi-run read returns every run's ReadBlocksAt image back
// to back, staged blocks included, and records the runs in run order at
// every width.
func TestReadRuns(t *testing.T) {
	geo := testGeometry()
	runs := []Run{{Disk: 1, Block: 7, Blocks: 2}, {Disk: 0, Block: 3, Blocks: 1}, {Disk: 1, Block: 0, Blocks: 3}}
	for _, workers := range []int{1, 2, 0} {
		ms := NewMemStore(geo.NumDisks, geo.BlockSize)
		a, _ := NewArray(geo, ms)
		for d := 0; d < geo.NumDisks; d++ {
			img := make([]byte, 10*geo.BlockSize)
			for i := range img {
				img[i] = byte(d*31 + i/geo.BlockSize*7 + i%5)
			}
			if err := a.WriteBlocksAt(d, 0, 10, img, TagLong); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Stage(0, 3, 1, []byte{9, 9, 9}, TagBucket); err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, r := range runs {
			piece, err := a.ReadBlocksAt(nil, r.Disk, r.Block, r.Blocks, TagDirectory)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, piece...)
		}
		before := a.Trace().Len()
		got, err := a.ReadRuns(runs, TagDirectory, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: ReadRuns image differs from the runs' reads", workers)
		}
		ops := a.Trace().Ops()[before:]
		if len(ops) != len(runs) {
			t.Fatalf("workers=%d: %d reads recorded, want %d", workers, len(ops), len(runs))
		}
		for i, r := range runs {
			if op := ops[i]; op.Kind != Read || op.Disk != r.Disk || op.Block != r.Block || op.Count != r.Blocks {
				t.Fatalf("workers=%d: read %d recorded as %+v, want %+v", workers, i, op, r)
			}
		}
	}
}
