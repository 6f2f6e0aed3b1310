package bucket

import (
	"bytes"
	"testing"

	"dualindex/internal/postings"
)

// FuzzDecodeBucket feeds arbitrary bytes to DecodeBucket in both modes. An
// image either decodes or is refused with an error, never a panic, and one
// that decodes re-encodes to exactly the bytes it consumed.
func FuzzDecodeBucket(f *testing.F) {
	const numBuckets = 3
	for _, track := range []bool{false, true} {
		s, err := NewSet(Config{NumBuckets: numBuckets, BucketSize: 1000, TrackPostings: track})
		if err != nil {
			f.Fatal(err)
		}
		for w := postings.WordID(0); w < 30; w++ {
			docs := seqDocs(int(w)*7, int(w)%5+1)
			if _, err := s.Add(w, len(docs), postings.FromDocs(docs)); err != nil {
				f.Fatal(err)
			}
		}
		for i := 0; i < numBuckets; i++ {
			f.Add(s.EncodeBucket(i, nil), uint8(i), track)
		}
	}
	f.Add([]byte{}, uint8(0), false)
	f.Add([]byte{2, 3, 1, 3, 1}, uint8(0), false)    // duplicate word
	f.Add([]byte{1, 0x83, 0x00, 1}, uint8(0), false) // overlong word id
	f.Add([]byte{1, 0, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x10}, uint8(0), true)
	// One word of 1001 units: more than the bucket holds.
	f.Add([]byte{1, 0, 0xe8, 0x07}, uint8(0), false)
	over, err := NewSet(Config{NumBuckets: numBuckets, BucketSize: 2000, TrackPostings: true})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := over.Add(0, 1000, postings.FromDocs(seqDocs(1, 1000))); err != nil {
		f.Fatal(err)
	}
	f.Add(over.EncodeBucket(0, nil), uint8(0), true)

	f.Fuzz(func(t *testing.T, data []byte, bucket uint8, track bool) {
		s, err := NewSet(Config{NumBuckets: numBuckets, BucketSize: 1000, TrackPostings: track})
		if err != nil {
			t.Fatal(err)
		}
		i := int(bucket) % numBuckets
		n, err := s.DecodeBucket(i, data)
		if err != nil {
			return
		}
		if got := s.EncodeBucket(i, nil); !bytes.Equal(got, data[:n]) {
			t.Fatalf("decoded %x, re-encoded %x", data[:n], got)
		}
	})
}
