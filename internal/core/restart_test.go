package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"dualindex/internal/disk"
	"dualindex/internal/postings"
)

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
	if sb := currentSuperblock(t, ix); sb.maxDoc != want {
		t.Fatalf("superblock maxDoc %d, want %d", sb.maxDoc, want)
	}
	// Open takes the value from the superblock: it reads no long list.
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.MaxDoc() != want {
		t.Fatalf("reopened MaxDoc = %d, want %d", re.MaxDoc(), want)
	}
	for _, op := range re.Array().Trace().Ops() {
		if op.Tag != disk.TagDirectory {
			t.Fatalf("Open read %+v: only checkpoint images should be read", op)
		}
	}
}

// TestSuperblockOldVersionsRefused: version-1 and version-2 checkpoints,
// which no current code writes, are refused with an error that names the
// version and the fix.
func TestSuperblockOldVersionsRefused(t *testing.T) {
	for version, encode := range map[int]func(superblock) []byte{
		1: encodeSuperblockV1,
		2: encodeSuperblockV2,
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
// the high-water mark even when the largest document's postings are gone.
func TestHighWaterSurvivesSweepAndRebalance(t *testing.T) {
	cfg := storeConfig()
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := maxRefDoc(fillIndex(t, ix, 4, 25))
	ix.Delete(want)
	if err := ix.Sweep(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.MaxDoc() != want {
		t.Fatalf("after sweep: MaxDoc = %d, want %d", re.MaxDoc(), want)
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
	if re2.MaxDoc() != want {
		t.Fatalf("after rebalance: MaxDoc = %d, want %d", re2.MaxDoc(), want)
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
	cases := map[string][]uint64{
		"region count 2^60":       head(3, 1<<60),
		"region count 2^64-1":     head(3, math.MaxUint64),
		"region disk":             head(3, 1, uint64(geo.NumDisks), 8, 512),
		"region past disk end":    head(3, 1, 0, uint64(geo.BlocksPerDisk)-1, 2),
		"empty region chunk":      head(3, 1, 0, 8, 0),
		"buckets beyond region":   head(3, 1, 0, 8, 1),
		"next disk":               {magic, 3, 1, uint64(geo.NumDisks), 64, 256, 0},
		"version 0":               {magic, 0},
		"future version":          {magic, superVersion + 1},
		"high-water beyond DocID": head(3, append(fits, 0, 0, 1<<40)...),
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
