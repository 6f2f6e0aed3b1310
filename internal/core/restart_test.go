package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dualindex/internal/disk"
	"dualindex/internal/postings"
)

// encodeSuperblockV4 renders a checkpoint root in the version-4 layout: the
// version-5 fields without the trailing word count.
func encodeSuperblockV4(sb superblock) []byte {
	b := binary.AppendUvarint(nil, superMagic)
	for _, v := range []uint64{4, uint64(sb.batches), uint64(sb.nextDisk),
		uint64(sb.buckets), uint64(sb.bucketSize), uint64(sb.codec)} {
		b = binary.AppendUvarint(b, v)
	}
	b = appendRegion(b, sb.bucketRegion)
	b = binary.AppendUvarint(b, uint64(sb.bucketBytes))
	b = appendRegion(b, sb.dirRegion)
	b = appendRegion(b, sb.delRegion)
	return binary.AppendUvarint(b, uint64(sb.maxDoc))
}

// encodeSuperblockV3 renders a checkpoint root in the version-3 layout: the
// version-4 fields without the bucket image's byte count.
func encodeSuperblockV3(sb superblock) []byte {
	b := binary.AppendUvarint(nil, superMagic)
	for _, v := range []uint64{3, uint64(sb.batches), uint64(sb.nextDisk),
		uint64(sb.buckets), uint64(sb.bucketSize), uint64(sb.codec)} {
		b = binary.AppendUvarint(b, v)
	}
	b = appendRegion(b, sb.bucketRegion)
	b = appendRegion(b, sb.dirRegion)
	b = appendRegion(b, sb.delRegion)
	return binary.AppendUvarint(b, uint64(sb.maxDoc))
}

// encodeSuperblockV2 renders a checkpoint root in the version-2 layout: the
// version-3 fields without the trailing high-water document identifier.
func encodeSuperblockV2(sb superblock) []byte {
	b := binary.AppendUvarint(nil, superMagic)
	for _, v := range []uint64{2, uint64(sb.batches), uint64(sb.nextDisk),
		uint64(sb.buckets), uint64(sb.bucketSize), uint64(sb.codec)} {
		b = binary.AppendUvarint(b, v)
	}
	b = appendRegion(b, sb.bucketRegion)
	b = appendRegion(b, sb.dirRegion)
	return appendRegion(b, sb.delRegion)
}

// encodeSuperblockV1 renders a checkpoint root in the version-1 layout: the
// version-2 fields without the codec.
func encodeSuperblockV1(sb superblock) []byte {
	b := binary.AppendUvarint(nil, superMagic)
	for _, v := range []uint64{1, uint64(sb.batches), uint64(sb.nextDisk),
		uint64(sb.buckets), uint64(sb.bucketSize)} {
		b = binary.AppendUvarint(b, v)
	}
	b = appendRegion(b, sb.bucketRegion)
	b = appendRegion(b, sb.dirRegion)
	return appendRegion(b, sb.delRegion)
}

// writeSuperblockImage replaces the superblock home of cfg's store with
// image, zero-padded to the home's four blocks.
func writeSuperblockImage(t testing.TB, cfg Config, image []byte) {
	t.Helper()
	home := make([]byte, superBlocks*cfg.Geometry.BlockSize)
	copy(home, image)
	if err := cfg.Store.WriteAt(0, 0, home); err != nil {
		t.Fatal(err)
	}
}

// currentSuperblock decodes the superblock ix last checkpointed.
func currentSuperblock(t testing.TB, ix *Index) superblock {
	t.Helper()
	buf := make([]byte, superBlocks*ix.cfg.Geometry.BlockSize)
	if err := ix.cfg.Store.ReadAt(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	sb, err := decodeSuperblock(buf, ix.cfg.Geometry, ix.cfg.BlockPosting)
	if err != nil {
		t.Fatal(err)
	}
	return sb
}

// listsMaxDoc is the largest document identifier still in ix's lists —
// every short list and every long list.
func listsMaxDoc(t testing.TB, ix *Index) postings.DocID {
	t.Helper()
	var high postings.DocID
	ix.buckets.ForEachWord(func(w postings.WordID, _ int) {
		if l := ix.buckets.List(w); l != nil && l.MaxDoc() > high {
			high = l.MaxDoc()
		}
	})
	for _, w := range ix.dir.Words() {
		l, _, err := ix.long.ReadList(w)
		if err != nil {
			t.Fatal(err)
		}
		if l.MaxDoc() > high {
			high = l.MaxDoc()
		}
	}
	return high
}

// refWords is one more than the largest word identifier in a fillIndex
// reference.
func refWords(ref map[postings.WordID][]postings.DocID) int {
	n := 0
	for w := range ref {
		n = max(n, int(w)+1)
	}
	return n
}

// maxRefDoc is the largest document identifier in a fillIndex reference.
func maxRefDoc(ref map[postings.WordID][]postings.DocID) postings.DocID {
	var high postings.DocID
	for _, docs := range ref {
		if d := docs[len(docs)-1]; d > high {
			high = d
		}
	}
	return high
}

func TestHighWaterCheckpointed(t *testing.T) {
	cfg := storeConfig()
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := fillIndex(t, ix, 4, 25)
	want := maxRefDoc(ref)
	if ix.MaxDoc() != want {
		t.Fatalf("MaxDoc = %d, want %d", ix.MaxDoc(), want)
	}
	words := refWords(ref)
	if ix.Words() != words {
		t.Fatalf("Words = %d, want %d", ix.Words(), words)
	}
	if sb := currentSuperblock(t, ix); sb.maxDoc != want || sb.words != words {
		t.Fatalf("superblock maxDoc %d, words %d; want %d, %d", sb.maxDoc, sb.words, want, words)
	}
	// Open takes both values from the superblock: it reads no long list.
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.MaxDoc() != want || re.Words() != words {
		t.Fatalf("reopened MaxDoc = %d, Words = %d; want %d, %d", re.MaxDoc(), re.Words(), want, words)
	}
	for _, op := range re.Array().Trace().Ops() {
		if op.Tag != disk.TagDirectory {
			t.Fatalf("Open read %+v: only checkpoint images should be read", op)
		}
	}
}

// TestSuperblockOldVersionsRefused: version-1 to version-4 checkpoints,
// which no current code writes, are refused with an error that names the
// version and the fix.
func TestSuperblockOldVersionsRefused(t *testing.T) {
	for version, encode := range map[int]func(superblock) []byte{
		1: encodeSuperblockV1,
		2: encodeSuperblockV2,
		3: encodeSuperblockV3,
		4: encodeSuperblockV4,
	} {
		cfg := storeConfig()
		ix, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fillIndex(t, ix, 4, 25)
		writeSuperblockImage(t, cfg, encode(currentSuperblock(t, ix)))
		_, err = Open(cfg)
		if err == nil {
			t.Fatalf("version-%d superblock opened", version)
		}
		for _, want := range []string{fmt.Sprintf("superblock version %d predates", version), "rebuild the index"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("version %d: error %q should say %q", version, err, want)
			}
		}
	}
}

// TestHighWaterSurvivesSweepAndRebalance: the maintenance checkpoints keep
// the high-water mark even when the largest document's postings are gone,
// and the word count with it.
func TestHighWaterSurvivesSweepAndRebalance(t *testing.T) {
	cfg := storeConfig()
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := fillIndex(t, ix, 4, 25)
	want, words := maxRefDoc(ref), refWords(ref)
	ix.Delete(want)
	if err := ix.Sweep(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.MaxDoc() != want || re.Words() != words {
		t.Fatalf("after sweep: MaxDoc = %d, Words = %d; want %d, %d", re.MaxDoc(), re.Words(), want, words)
	}
	if scanned := listsMaxDoc(t, re); scanned >= want {
		t.Fatalf("lists after sweep reach %d; the swept document %d should be gone", scanned, want)
	}
	if err := re.RebalanceBuckets(32, 200); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re2.MaxDoc() != want || re2.Words() != words {
		t.Fatalf("after rebalance: MaxDoc = %d, Words = %d; want %d, %d", re2.MaxDoc(), re2.Words(), want, words)
	}
}

// corruptSuperblocks are images whose counts or locations a decoder must
// refuse before trusting them. Each is a list of varint fields; the zero
// padding of the superblock home supplies any fields left off the end.
func corruptSuperblocks(geo disk.Geometry) map[string][]byte {
	const magic = superMagic
	// head: magic, version, batches, next disk, 64 buckets of 256, raw.
	head := func(version uint64, rest ...uint64) []uint64 {
		return append([]uint64{magic, version, 1, 0, 64, 256, 0}, rest...)
	}
	// fits is a one-chunk bucket region holding 64 × 256 units exactly.
	fits := []uint64{1, 0, 8, 512}
	regionBytes := uint64(512 * geo.BlockSize)
	cases := map[string][]uint64{
		"region count 2^60":          head(superVersion, 1<<60),
		"region count 2^64-1":        head(superVersion, math.MaxUint64),
		"region disk":                head(superVersion, 1, uint64(geo.NumDisks), 8, 512),
		"region past disk end":       head(superVersion, 1, 0, uint64(geo.BlocksPerDisk)-1, 2),
		"empty region chunk":         head(superVersion, 1, 0, 8, 0),
		"buckets beyond region":      head(superVersion, 1, 0, 8, 1),
		"bucket bytes beyond region": head(superVersion, append(fits, regionBytes+1)...),
		"bucket bytes 2^64-1":        head(superVersion, append(fits, math.MaxUint64)...),
		"next disk":                  {magic, superVersion, 1, uint64(geo.NumDisks), 64, 256, 0},
		"version 0":                  {magic, 0},
		"future version":             {magic, superVersion + 1},
		"high-water beyond DocID":    head(superVersion, append(fits, regionBytes, 0, 0, 1<<40)...),
		"words beyond WordID":        head(superVersion, append(fits, regionBytes, 0, 0, 1, 1<<40)...),
	}
	images := make(map[string][]byte, len(cases))
	for name, fields := range cases {
		var b []byte
		for _, v := range fields {
			b = binary.AppendUvarint(b, v)
		}
		images[name] = b
	}
	return images
}

// TestCorruptSuperblockCountsRefused pins the bounds: every image above,
// written over a real checkpoint, makes Open fail with an error — never a
// panic and never an allocation sized by a corrupt count.
func TestCorruptSuperblockCountsRefused(t *testing.T) {
	for name, image := range corruptSuperblocks(storeConfig().Geometry) {
		t.Run(name, func(t *testing.T) {
			cfg := storeConfig()
			ix, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fillIndex(t, ix, 2, 10)
			writeSuperblockImage(t, cfg, image)
			if _, err := Open(cfg); err == nil {
				t.Fatal("corrupt superblock accepted")
			} else if !strings.HasPrefix(err.Error(), "core: ") {
				t.Fatalf("unexpected error %v", err)
			}
		})
	}
	// The deleted list is its own image with its own count.
	if _, err := decodeDocSet(binary.AppendUvarint(nil, 1<<60)); err == nil {
		t.Fatal("deleted list count 2^60 accepted")
	}
}

// FuzzSuperblock opens arbitrary superblock images over an otherwise empty
// store: each must open or be refused with an error, never panic. The
// small geometry keeps the regions an image may claim cheap to read.
func FuzzSuperblock(f *testing.F) {
	cfg := storeConfig()
	cfg.Geometry.BlocksPerDisk = 2048
	ix, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	fillIndex(f, ix, 3, 20)
	f.Add(ix.encodeSuperblock())
	// Version-5 images whose bucket image length is off by one either way.
	for _, delta := range []int64{-1, 1} {
		ix.bucketBytes += delta
		f.Add(ix.encodeSuperblock())
		ix.bucketBytes -= delta
	}
	// One whose word count is the largest a word identifier allows.
	words := ix.words
	ix.words = math.MaxUint32 + 1
	f.Add(ix.encodeSuperblock())
	ix.words = words
	f.Add(encodeSuperblockV4(currentSuperblock(f, ix)))
	f.Add(encodeSuperblockV3(currentSuperblock(f, ix)))
	f.Add(encodeSuperblockV2(currentSuperblock(f, ix)))
	for _, image := range corruptSuperblocks(cfg.Geometry) {
		f.Add(image)
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		if len(image) > superBlocks*cfg.Geometry.BlockSize {
			image = image[:superBlocks*cfg.Geometry.BlockSize]
		}
		c := cfg
		c.Store = disk.NewMemStore(c.Geometry.NumDisks, c.Geometry.BlockSize)
		writeSuperblockImage(t, c, image)
		if re, err := Open(c); err == nil {
			if err := re.CheckConsistency(); err != nil {
				t.Fatalf("opened image fails its consistency check: %v", err)
			}
		}
	})
}

// TestBucketImageLengthChecked: Open decodes the bucket image to exactly
// the byte count its superblock records. A count one short cuts the last
// bucket off, one long leaves a byte undecoded, and either is refused.
func TestBucketImageLengthChecked(t *testing.T) {
	for _, delta := range []int64{-1, 1} {
		cfg := storeConfig()
		ix, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fillIndex(t, ix, 3, 20)
		ix.batches-- // encodeSuperblock records the batch count after a flush
		ix.bucketBytes += delta
		writeSuperblockImage(t, cfg, ix.encodeSuperblock())
		if _, err := Open(cfg); err == nil {
			t.Fatalf("bucket image length off by %d accepted", delta)
		} else if !strings.HasPrefix(err.Error(), "core: ") {
			t.Fatalf("off by %d: unexpected error %v", delta, err)
		}
	}
}

// TestStaleStripeTailsNeverRead: a flush writes only the blocks the bucket
// image occupies, so the rest of each stripe keeps whatever it held, and
// Open must neither read nor decode it. Every byte of the live bucket
// region past the recorded image length is overwritten with 0xFF in the
// disk files; the reopened index must pass its consistency check, answer
// exactly as before, and read exactly the image's blocks of the region.
// The image ends inside disk 0's stripe under storeConfig (short lists
// only) and longListConfig; over eight disks it spans two stripes and
// leaves six empty.
func TestStaleStripeTailsNeverRead(t *testing.T) {
	striped := longListConfig()
	striped.Geometry.NumDisks = 8
	for name, cfg := range map[string]Config{
		"buckets":     storeConfig(),
		"long lists":  longListConfig(),
		"eight disks": striped,
	} {
		t.Run(name, func(t *testing.T) { staleStripeTails(t, cfg) })
	}
}

func staleStripeTails(t *testing.T, cfg Config) {
	dir := t.TempDir()
	geo := cfg.Geometry
	store, err := disk.NewAsyncFileStore(dir, geo.NumDisks, geo.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := fillIndex(t, ix, 5, 30)
	want := map[postings.WordID][]postings.DocID{}
	for w := range ref {
		l, err := ix.GetList(w)
		if err != nil {
			t.Fatal(err)
		}
		want[w] = l.Docs()
	}
	sb := currentSuperblock(t, ix)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	bs := int64(geo.BlockSize)
	occupied, overwritten := sb.bucketBytes, int64(0)
	for _, c := range sb.bucketRegion {
		keep := min(occupied, c.blocks*bs)
		occupied -= keep
		stale := bytes.Repeat([]byte{0xFF}, int(c.blocks*bs-keep))
		f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("disk%d.dat", c.disk)), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(stale, c.block*bs+keep); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		overwritten += int64(len(stale))
	}
	if overwritten == 0 {
		t.Fatal("the bucket image fills its region: no stripe tail to overwrite")
	}

	if cfg.Store, err = disk.OpenAsyncFileStore(dir, geo.NumDisks, geo.BlockSize); err != nil {
		t.Fatal(err)
	}
	defer cfg.Store.Close()
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var regionReads int64
	for _, op := range re.Array().Trace().Ops() {
		for _, c := range sb.bucketRegion {
			if op.Kind == disk.Read && op.Disk == c.disk && op.Block < c.block+c.blocks && c.block < op.Block+op.Count {
				regionReads += op.Count
			}
		}
	}
	if wantReads := geo.BlocksFor(sb.bucketBytes); regionReads != wantReads {
		t.Errorf("Open read %d blocks of the bucket region, want the image's %d", regionReads, wantReads)
	}
	if err := re.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for w, docs := range want {
		got, err := re.GetList(w)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Docs(), docs) {
			t.Fatalf("word %d: %d postings after reopen, want %d", w, got.Len(), len(docs))
		}
	}
}
