package directory

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// dirImage renders varint fields as a directory image. A chunk is five
// fields (disk, block, blocks, postings, capacity), plus EncBlocks when ext.
func dirImage(fields ...uint64) []byte {
	var b []byte
	for _, v := range fields {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// corruptDirectories are images Encode or EncodeExt cannot produce, built
// for the ext format when ext is set.
func corruptDirectories(ext bool) map[string][]byte {
	c := []uint64{0, 4, 1, 5, 10}
	if ext {
		c = append(c, 1)
	}
	word := func(id uint64, chunks ...[]uint64) []uint64 {
		out := []uint64{id, uint64(len(chunks))}
		for _, ch := range chunks {
			out = append(out, ch...)
		}
		return out
	}
	image := func(words ...[]uint64) []byte {
		fields := []uint64{uint64(len(words))}
		for _, w := range words {
			fields = append(fields, w...)
		}
		return dirImage(fields...)
	}
	// 7 as a two-byte varint: Encode writes it in one.
	overlong := append([]byte{1, 0x87, 0x00}, dirImage(append([]uint64{1}, c...)...)...)
	return map[string][]byte{
		"word id beyond 32 bits": image(word(1<<32+7, c)),
		"repeated word id":       image(word(7, c), word(7, c)),
		"descending word ids":    image(word(9, c), word(7, c)),
		"word with no chunks":    image(word(7)),
		"non-minimal varint":     overlong,
	}
}

// TestDecodeDirectoryRefusesCorruption pins the decoder's checks: every
// image above is refused by the decoder of its format.
func TestDecodeDirectoryRefusesCorruption(t *testing.T) {
	for ext, decoder := range map[bool]func([]byte) (*Dir, error){false: Decode, true: DecodeExt} {
		for name, image := range corruptDirectories(ext) {
			if _, err := decoder(image); err == nil {
				t.Errorf("ext=%v: %s accepted", ext, name)
			}
		}
	}
	// The well-formed twin of the images above decodes.
	if _, err := Decode(dirImage(1, 7, 1, 0, 4, 1, 5, 10)); err != nil {
		t.Errorf("well-formed image refused: %v", err)
	}
	if _, err := DecodeExt(dirImage(1, 7, 1, 0, 4, 1, 5, 10, 1)); err != nil {
		t.Errorf("well-formed ext image refused: %v", err)
	}
}

// FuzzDecodeDirectory feeds arbitrary images to both decoders: each must
// decode or be refused with an error, never panic, and a decoded directory
// must re-encode to a prefix of the image (the rest is block padding).
func FuzzDecodeDirectory(f *testing.F) {
	d := New()
	d.AppendChunk(1, ChunkRef{Disk: 0, Block: 0, Blocks: 2, Postings: 100, Capacity: 200})
	d.AppendChunk(1, ChunkRef{Disk: 3, Block: 77, Blocks: 1, Postings: 50, Capacity: 100, EncBlocks: 1})
	d.AppendChunk(42, ChunkRef{Disk: 2, Block: 1000, Blocks: 5, Postings: 2000, Capacity: 2000})
	f.Add(d.Encode(nil))
	f.Add(append(d.EncodeExt(nil), 0, 0, 0))
	for _, ext := range []bool{false, true} {
		for _, image := range corruptDirectories(ext) {
			f.Add(image)
		}
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		for _, ext := range []bool{false, true} {
			got, err := decode(image, ext)
			if err != nil {
				continue
			}
			if re := got.encode(nil, ext); !bytes.HasPrefix(image, re) {
				t.Fatalf("ext=%v: decoded directory re-encodes to %x, not a prefix of %x", ext, re, image)
			}
		}
	})
}
