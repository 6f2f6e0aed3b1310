package bucket

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"dualindex/internal/postings"
)

func newSet(t *testing.T, buckets, size int) *Set {
	t.Helper()
	s, err := NewSet(Config{NumBuckets: buckets, BucketSize: size})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSetValidation(t *testing.T) {
	for _, cfg := range []Config{{}, {NumBuckets: 0, BucketSize: 10}, {NumBuckets: 5, BucketSize: 1}} {
		if _, err := NewSet(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestHashModular(t *testing.T) {
	s := newSet(t, 7, 100)
	for w := postings.WordID(0); w < 100; w++ {
		if got := s.Hash(w); got != int(w%7) {
			t.Fatalf("Hash(%d) = %d, want %d", w, got, w%7)
		}
	}
}

func TestAddAndCount(t *testing.T) {
	s := newSet(t, 4, 100)
	if _, err := s.Add(9, 5, nil); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(9) || count(s, 9) != 5 {
		t.Fatalf("Contains=%v Count=%d", s.Contains(9), count(s, 9))
	}
	// A word and its postings are both charged units.
	if got := s.buckets[s.Hash(9)].load; got != 6 {
		t.Fatalf("Load = %d, want 6 (1 word + 5 postings)", got)
	}
	if _, err := s.Add(9, 3, nil); err != nil {
		t.Fatal(err)
	}
	if count(s, 9) != 8 || s.buckets[s.Hash(9)].load != 9 {
		t.Fatalf("after append Count=%d Load=%d", count(s, 9), s.buckets[s.Hash(9)].load)
	}
}

func TestAddRejectsBadInput(t *testing.T) {
	s := newSet(t, 4, 100)
	if _, err := s.Add(1, 0, nil); err == nil {
		t.Error("zero count accepted")
	}
	ts, _ := NewSet(Config{NumBuckets: 4, BucketSize: 100, TrackPostings: true})
	if _, err := ts.Add(1, 3, nil); err == nil {
		t.Error("tracking set accepted nil list")
	}
	if _, err := ts.Add(1, 3, postings.FromDocs([]postings.DocID{1})); err == nil {
		t.Error("tracking set accepted count/list mismatch")
	}
	// An append must open above the stored list, and a refused one leaves
	// the list as it was.
	if _, err := ts.Add(1, 2, postings.FromDocs([]postings.DocID{5, 6})); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Add(1, 1, postings.FromDocs([]postings.DocID{6})); !errors.Is(err, postings.ErrAppendOrder) {
		t.Errorf("overlapping append err = %v, want ErrAppendOrder", err)
	}
	if got := ts.List(1).Docs(); !slices.Equal(got, []postings.DocID{5, 6}) || ts.buckets[1].load != 3 {
		t.Errorf("refused append left %v, load %d", got, ts.buckets[1].load)
	}
}

func TestOverflowEvictsLongest(t *testing.T) {
	s := newSet(t, 1, 20)
	if _, err := s.Add(1, 10, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(2, 5, nil); err != nil {
		t.Fatal(err)
	}
	// Load is now 17; adding 4 postings for word 3 pushes to 22 > 20.
	ev, err := s.Add(3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Word != 1 || ev[0].Count != 10 {
		t.Fatalf("evicted %+v, want word 1 with 10 postings", ev)
	}
	if s.Contains(1) {
		t.Error("evicted word still present")
	}
	if s.buckets[0].load != 11 { // words 2,3 + 9 postings
		t.Errorf("post-eviction load = %d, want 11", s.buckets[0].load)
	}
}

func TestOverflowCanEvictTheInsertedWord(t *testing.T) {
	s := newSet(t, 1, 20)
	if _, err := s.Add(1, 5, nil); err != nil {
		t.Fatal(err)
	}
	ev, err := s.Add(2, 30, nil) // larger than the whole bucket
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Word != 2 || ev[0].Count != 30 {
		t.Fatalf("evicted %+v, want the oversized word 2", ev)
	}
	if !s.Contains(1) {
		t.Error("innocent word 1 was evicted")
	}
}

func TestOverflowMayEvictRepeatedly(t *testing.T) {
	s := newSet(t, 1, 10)
	if _, err := s.Add(1, 4, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(2, 4, nil); err != nil {
		t.Fatal(err)
	}
	// Bucket at 10/10. Insert word 3 with 9 postings: load 20; evicting one
	// 4-posting list leaves 15, evicting 9-posting list leaves 10. Evictions
	// repeat until the bucket fits.
	ev, err := s.Add(3, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) < 1 {
		t.Fatalf("no evictions: load=%d", s.buckets[0].load)
	}
	if s.buckets[0].load > 10 {
		t.Fatalf("bucket still over capacity: %d", s.buckets[0].load)
	}
}

func TestEvictionTieBreaksDeterministically(t *testing.T) {
	mk := func() *Set {
		s := newSet(t, 1, 12)
		s.Add(5, 5, nil)
		s.Add(9, 5, nil)
		return s
	}
	a := mk()
	evA, _ := a.Add(3, 5, nil)
	b := mk()
	evB, _ := b.Add(3, 5, nil)
	if evA[0].Word != evB[0].Word {
		t.Fatalf("nondeterministic eviction: %d vs %d", evA[0].Word, evB[0].Word)
	}
	if evA[0].Word != 3 && evA[0].Word != 5 && evA[0].Word != 9 {
		t.Fatalf("evicted unknown word %d", evA[0].Word)
	}
}

func TestTrackPostingsKeepsLists(t *testing.T) {
	s, err := NewSet(Config{NumBuckets: 2, BucketSize: 50, TrackPostings: true})
	if err != nil {
		t.Fatal(err)
	}
	l1 := postings.FromDocs([]postings.DocID{1, 3, 5})
	if _, err := s.Add(7, 3, l1); err != nil {
		t.Fatal(err)
	}
	l2 := postings.FromDocs([]postings.DocID{8, 9})
	if _, err := s.Add(7, 2, l2); err != nil {
		t.Fatal(err)
	}
	got := s.List(7)
	want := postings.FromDocs([]postings.DocID{1, 3, 5, 8, 9})
	if !slices.Equal(got.Docs(), want.Docs()) {
		t.Fatalf("List = %v, want %v", got.Docs(), want.Docs())
	}
	// Evicted entries carry their lists out.
	ev, err := s.Add(9, 60, postings.FromDocs(seqDocs(10, 60)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].List == nil || ev[0].List.Len() != 60 {
		t.Fatalf("eviction lost list: %+v", ev)
	}
}

func TestPurge(t *testing.T) {
	s, _ := NewSet(Config{NumBuckets: 2, BucketSize: 50, TrackPostings: true})
	s.Add(6, 3, postings.FromDocs([]postings.DocID{1, 2, 3}))
	s.Add(8, 2, postings.FromDocs([]postings.DocID{10, 20}))
	untouched := s.buckets[s.Hash(8)].get(8).body
	s.Purge([]postings.DocID{1, 3, 15})
	if count(s, 6) != 1 || s.buckets[s.Hash(6)].load != 2+3 {
		t.Fatalf("after purge Count=%d Load=%d", count(s, 6), s.buckets[s.Hash(6)].load)
	}
	if got := s.List(6).Docs(); !slices.Equal(got, []postings.DocID{2}) {
		t.Fatalf("purged list = %v, want [2]", got)
	}
	// A list whose range holds a swept document it lacks keeps its body.
	if &s.buckets[s.Hash(8)].get(8).body[0] != &untouched[0] || count(s, 8) != 2 {
		t.Fatal("purge rewrote a list it did not change")
	}
	// Purging a list to empty removes the word entirely.
	s.Purge([]postings.DocID{2})
	if s.Contains(6) || s.buckets[s.Hash(6)].load != 3 {
		t.Fatal("empty list left residue")
	}
	// Count-only sets hold no postings to purge.
	c := newSet(t, 2, 50)
	c.Add(6, 3, nil)
	c.Purge([]postings.DocID{1, 2, 3})
	if count(c, 6) != 3 {
		t.Fatal("count-only purge changed a count")
	}
}

func TestEncodeDecodeBucketCountOnly(t *testing.T) {
	s := newSet(t, 2, 1000)
	s.Add(0, 5, nil)
	s.Add(2, 7, nil)
	s.Add(4, 1, nil)
	buf := s.EncodeBucket(0, nil)

	s2 := newSet(t, 2, 1000)
	n, err := s2.DecodeBucket(0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	for _, w := range []postings.WordID{0, 2, 4} {
		if count(s2, w) != count(s, w) {
			t.Errorf("word %d: count %d != %d", w, count(s2, w), count(s, w))
		}
	}
	if s2.buckets[0].load != s.buckets[0].load {
		t.Errorf("load %d != %d", s2.buckets[0].load, s.buckets[0].load)
	}
}

func TestEncodeDecodeBucketWithPostings(t *testing.T) {
	s, _ := NewSet(Config{NumBuckets: 1, BucketSize: 1000, TrackPostings: true})
	s.Add(1, 3, postings.FromDocs([]postings.DocID{1, 5, 9}))
	s.Add(2, 2, postings.FromDocs([]postings.DocID{4, 8}))
	buf := s.EncodeBucket(0, nil)

	s2, _ := NewSet(Config{NumBuckets: 1, BucketSize: 1000, TrackPostings: true})
	if _, err := s2.DecodeBucket(0, buf); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s2.List(1).Docs(), s.List(1).Docs()) || !slices.Equal(s2.List(2).Docs(), s.List(2).Docs()) {
		t.Fatal("decoded lists differ")
	}
}

func TestDecodeBucketCorrupt(t *testing.T) {
	s := newSet(t, 1, 100)
	if _, err := s.DecodeBucket(0, nil); err == nil {
		t.Error("nil buffer accepted")
	}
	if _, err := s.DecodeBucket(0, []byte{3, 1}); err == nil {
		t.Error("truncated buffer accepted")
	}
	// A count no image could hold is refused before it sizes the map.
	huge := binary.AppendUvarint(nil, 1<<60)
	if _, err := s.DecodeBucket(0, append(huge, 1, 1)); err == nil {
		t.Error("entry count 2^60 accepted")
	}
}

func TestDecodeBucketRejectsDisorder(t *testing.T) {
	image := func(words ...uint64) []byte {
		buf := binary.AppendUvarint(nil, uint64(len(words)))
		for _, w := range words {
			buf = binary.AppendUvarint(buf, w)
			buf = binary.AppendUvarint(buf, 1)
		}
		return buf
	}
	s := newSet(t, 2, 100)
	if _, err := s.DecodeBucket(0, image(2, 4, 6)); err != nil {
		t.Fatalf("ascending image refused: %v", err)
	}
	for name, buf := range map[string][]byte{
		"duplicate":  image(2, 4, 4),
		"descending": image(4, 2),
		"misplaced":  image(2, 3),
		"too wide":   image(2, 1<<32),
		"overlong":   {1, 0x82, 0x00, 1}, // word 2 in two bytes
	} {
		if _, err := s.DecodeBucket(0, buf); err == nil {
			t.Errorf("%s image accepted", name)
		}
	}
	// A refused image leaves the bucket as it was.
	if s.WordsIn(0) != 3 || !s.Contains(4) || s.buckets[0].load != 6 {
		t.Fatalf("refused image changed bucket 0: words=%d load=%d", s.WordsIn(0), s.buckets[0].load)
	}
}

// TestDecodeBucketRefusesOverfull: an image whose words and postings
// exceed the bucket's size is corrupt in both modes; a flush never writes
// one, since the checkpoint's geometry is the one the set is opened with.
func TestDecodeBucketRefusesOverfull(t *testing.T) {
	for _, track := range []bool{false, true} {
		full, _ := NewSet(Config{NumBuckets: 1, BucketSize: 100, TrackPostings: track})
		full.Add(0, 50, postings.FromDocs(seqDocs(1, 50)))
		image := full.EncodeBucket(0, nil) // one word of 51 units
		for size, fits := range map[int]bool{10: false, 50: false, 51: true} {
			s, _ := NewSet(Config{NumBuckets: 1, BucketSize: size, TrackPostings: track})
			_, err := s.DecodeBucket(0, image)
			if fits != (err == nil) {
				t.Errorf("track=%v: 51-unit image into a %d-unit bucket: err = %v", track, size, err)
			}
		}
		// Two words of 21 units each overfill a 41-unit bucket together.
		two, _ := NewSet(Config{NumBuckets: 1, BucketSize: 100, TrackPostings: track})
		two.Add(0, 20, postings.FromDocs(seqDocs(1, 20)))
		two.Add(1, 20, postings.FromDocs(seqDocs(1, 20)))
		s, _ := NewSet(Config{NumBuckets: 1, BucketSize: 41, TrackPostings: track})
		if _, err := s.DecodeBucket(0, two.EncodeBucket(0, nil)); err == nil {
			t.Errorf("track=%v: 42-unit image accepted into a 41-unit bucket", track)
		}
	}
	// An empty list is corrupt too: no write leaves one in a bucket.
	s := newSet(t, 1, 100)
	if _, err := s.DecodeBucket(0, []byte{1, 0, 0}); err == nil {
		t.Error("empty list accepted")
	}
}

// TestDecodeBucketAllocsFlat: decoding keeps each body as a piece of the
// image, so a bucket of 10,000 postings in 1,000 lists decodes with the
// allocations of one of 10 postings in 10 lists.
func TestDecodeBucketAllocsFlat(t *testing.T) {
	allocs := func(words, postingsPerWord int) float64 {
		src, _ := NewSet(Config{NumBuckets: 1, BucketSize: 20_000, TrackPostings: true})
		for w := 0; w < words; w++ {
			if _, err := src.Add(postings.WordID(w), postingsPerWord, postings.FromDocs(seqDocs(w, postingsPerWord))); err != nil {
				t.Fatal(err)
			}
		}
		image := src.EncodeBucket(0, nil)
		dst, _ := NewSet(Config{NumBuckets: 1, BucketSize: 20_000, TrackPostings: true})
		return testing.AllocsPerRun(50, func() {
			if _, err := dst.DecodeBucket(0, image); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10, 1), allocs(1000, 10); small != large {
		t.Fatalf("DecodeBucket allocates %v times for 10 postings but %v for 10,000", small, large)
	}
}

// setState is everything a reader can observe of a set: per-word presence,
// count and postings over a range of words, and every bucket's image.
type setState struct {
	contains []bool
	counts   []int
	docs     [][]postings.DocID
	images   [][]byte
}

func stateOf(s *Set, words int) setState {
	var st setState
	for w := postings.WordID(0); w < postings.WordID(words); w++ {
		st.contains = append(st.contains, s.Contains(w))
		st.counts = append(st.counts, count(s, w))
		st.docs = append(st.docs, s.List(w).Docs())
	}
	for i := 0; i < s.NumBuckets(); i++ {
		st.images = append(st.images, s.EncodeBucket(i, nil))
	}
	return st
}

// TestCloneIsolation pins Clone's copy-on-write contract: every kind of
// write to one side of a clone leaves the other side's observable state
// exactly as it was, whichever side is written.
func TestCloneIsolation(t *testing.T) {
	const words = 40
	build := func() *Set {
		s, err := NewSet(Config{NumBuckets: 4, BucketSize: 60, TrackPostings: true})
		if err != nil {
			t.Fatal(err)
		}
		for w := postings.WordID(0); w < 24; w++ {
			if _, err := s.Add(w, 2, postings.FromDocs([]postings.DocID{1, postings.DocID(2 + w)})); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// Bucket 2's image, as another set holds it, for DecodeBucket below.
	other := build()
	other.Purge([]postings.DocID{4}) // word 2's second posting
	otherImage := other.EncodeBucket(2, nil)

	mutate := func(t *testing.T, s *Set) {
		t.Helper()
		steps := []struct {
			name string
			fn   func() error
		}{
			{"append to an existing word", func() error {
				_, err := s.Add(4, 2, postings.FromDocs([]postings.DocID{100, 101}))
				return err
			}},
			{"insert a new word", func() error {
				_, err := s.Add(29, 1, postings.FromDocs([]postings.DocID{100}))
				return err
			}},
			{"evict", func() error {
				ev, err := s.Add(1, 50, postings.FromDocs(seqDocs(100, 50)))
				if err == nil && len(ev) == 0 {
					err = fmt.Errorf("no eviction")
				}
				return err
			}},
			{"purge a list to nothing", func() error {
				s.Purge([]postings.DocID{100}) // all of word 29, part of word 4
				return nil
			}},
			{"purge a list", func() error {
				s.Purge([]postings.DocID{10}) // word 8's second posting
				return nil
			}},
			{"decode a bucket", func() error {
				_, err := s.DecodeBucket(2, otherImage)
				return err
			}},
		}
		for _, st := range steps {
			before := stateOf(s, words)
			if err := st.fn(); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			if reflect.DeepEqual(before, stateOf(s, words)) {
				t.Fatalf("%s changed nothing", st.name)
			}
		}
	}

	t.Run("write original", func(t *testing.T) {
		s := build()
		c := s.Clone()
		want := stateOf(c, words)
		mutate(t, s)
		if got := stateOf(c, words); !reflect.DeepEqual(got, want) {
			t.Fatalf("writes to the original changed the clone:\n got %+v\nwant %+v", got, want)
		}
	})
	t.Run("write clone", func(t *testing.T) {
		s := build()
		want := stateOf(s, words)
		c := s.Clone()
		mutate(t, c)
		if got := stateOf(s, words); !reflect.DeepEqual(got, want) {
			t.Fatalf("writes to the clone changed the original:\n got %+v\nwant %+v", got, want)
		}
	})
}

// TestCloneAllocsFlat gates Clone's cost: it copies bucket headers, not
// postings, so a set holding 100 times the postings clones with the same
// allocations.
func TestCloneAllocsFlat(t *testing.T) {
	allocs := func(postingsPerWord int) float64 {
		s, err := NewSet(Config{NumBuckets: 256, BucketSize: 2000, TrackPostings: true})
		if err != nil {
			t.Fatal(err)
		}
		for w := postings.WordID(0); w < 100; w++ {
			if _, err := s.Add(w, postingsPerWord, postings.FromDocs(seqDocs(1, postingsPerWord))); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(100, func() { s.Clone() })
	}
	small, large := allocs(10), allocs(1000) // 1 k and 100 k postings
	if small != large {
		t.Fatalf("Clone allocates %v times at 1 k postings but %v at 100 k", small, large)
	}
}

func TestQuickLoadInvariant(t *testing.T) {
	// After any Add sequence every bucket's load equals words+postings and
	// never exceeds BucketSize, and total evicted+resident postings equal
	// total inserted postings.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, err := NewSet(Config{NumBuckets: 4, BucketSize: 64})
		if err != nil {
			return false
		}
		inserted, evicted := 0, 0
		for i := 0; i < 200; i++ {
			w := postings.WordID(r.Intn(50))
			c := r.Intn(20) + 1
			evs, err := s.Add(w, c, nil)
			if err != nil {
				return false
			}
			inserted += c
			for _, e := range evs {
				evicted += e.Count
			}
		}
		resident := 0
		for i := 0; i < s.NumBuckets(); i++ {
			if s.buckets[i].load > s.bucketSize {
				return false
			}
			if s.buckets[i].load != s.WordsIn(i)+s.PostingsIn(i) {
				return false
			}
			resident += s.PostingsIn(i)
		}
		return resident+evicted == inserted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEncodeDecodeRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, _ := NewSet(Config{NumBuckets: 3, BucketSize: 128})
		for i := 0; i < 100; i++ {
			s.Add(postings.WordID(r.Intn(90)), r.Intn(10)+1, nil)
		}
		for i := 0; i < 3; i++ {
			buf := s.EncodeBucket(i, nil)
			s2, _ := NewSet(Config{NumBuckets: 3, BucketSize: 128})
			if _, err := s2.DecodeBucket(i, buf); err != nil {
				return false
			}
			if s2.buckets[i].load != s.buckets[i].load || s2.WordsIn(i) != s.WordsIn(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func seqDocs(start, n int) []postings.DocID {
	out := make([]postings.DocID, n)
	for i := range out {
		out[i] = postings.DocID(start + i)
	}
	return out
}

func BenchmarkAdd(b *testing.B) {
	s, _ := NewSet(Config{NumBuckets: 512, BucketSize: 2048})
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Add(postings.WordID(r.Intn(100_000)), r.Intn(5)+1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestObserverFiresPerMutation(t *testing.T) {
	s, _ := NewSet(Config{NumBuckets: 2, BucketSize: 16})
	var events []int
	s.SetObserver(func(b int) { events = append(events, b) })
	s.Add(0, 3, nil) // insert → 1 event on bucket 0
	s.Add(0, 2, nil) // append → 1 event
	s.Add(1, 1, nil) // insert on bucket 1
	if len(events) != 3 || events[0] != 0 || events[2] != 1 {
		t.Fatalf("events = %v", events)
	}
	// Overflow adds one eviction event on the same bucket.
	events = nil
	s.Add(2, 20, nil) // bucket 0: insert + eviction
	if len(events) != 2 || events[0] != 0 || events[1] != 0 {
		t.Fatalf("overflow events = %v", events)
	}
	// Disabling the observer stops notifications.
	s.SetObserver(nil)
	events = nil
	s.Add(3, 1, nil)
	if len(events) != 0 {
		t.Fatal("disabled observer fired")
	}
}

// count is the number of postings in w's short list (0 if absent).
func count(s *Set, w postings.WordID) int {
	if e := s.buckets[s.Hash(w)].get(w); e != nil {
		return int(e.count)
	}
	return 0
}

// refSet is the reference model of a tracking Set: each word's postings,
// kept as a plain slice, and the same geometry and eviction rule.
type refSet struct {
	buckets, size int
	lists         map[postings.WordID][]postings.DocID
}

func (r *refSet) clone() *refSet {
	c := &refSet{buckets: r.buckets, size: r.size, lists: map[postings.WordID][]postings.DocID{}}
	for w, docs := range r.lists {
		c.lists[w] = slices.Clone(docs)
	}
	return c
}

// words returns bucket i's words in ascending order.
func (r *refSet) words(i int) []postings.WordID {
	var ws []postings.WordID
	for w := range r.lists {
		if int(w)%r.buckets == i {
			ws = append(ws, w)
		}
	}
	slices.Sort(ws)
	return ws
}

// image encodes bucket i with postings.Encode, list by list.
func (r *refSet) image(i int) []byte {
	ws := r.words(i)
	buf := binary.AppendUvarint(nil, uint64(len(ws)))
	for _, w := range ws {
		buf = binary.AppendUvarint(buf, uint64(w))
		buf = postings.Encode(buf, postings.NewList(r.lists[w]))
	}
	return buf
}

// add appends docs to w's list and evicts as the paper does: the longest
// list, the lowest word among equals, until the bucket fits. It returns the
// evicted words in order.
func (r *refSet) add(w postings.WordID, docs []postings.DocID) []postings.WordID {
	r.lists[w] = append(r.lists[w], docs...)
	i := int(w) % r.buckets
	var evicted []postings.WordID
	for {
		ws, load := r.words(i), 0
		for _, x := range ws {
			load += 1 + len(r.lists[x])
		}
		if load <= r.size {
			return evicted
		}
		victim := ws[0]
		for _, x := range ws {
			if len(r.lists[x]) > len(r.lists[victim]) {
				victim = x
			}
		}
		evicted = append(evicted, victim)
		delete(r.lists, victim)
	}
}

func (r *refSet) purge(swept []postings.DocID) {
	for w, docs := range r.lists {
		docs = slices.DeleteFunc(docs, func(d postings.DocID) bool {
			_, found := slices.BinarySearch(swept, d)
			return found
		})
		if len(docs) == 0 {
			delete(r.lists, w)
		} else {
			r.lists[w] = docs
		}
	}
}

// TestBucketImageMatchesReference drives sets through seeded random
// operations — Add of a new word, an append, an Add that evicts, Purge,
// DecodeBucket and Clone, then writes to both sides of the clone — and
// after every step requires each set's bucket images to equal the images
// postings.Encode builds from a reference model, and every List to equal
// the model's postings.
func TestBucketImageMatchesReference(t *testing.T) {
	const (
		numBuckets = 4
		size       = 64
		words      = 40
	)
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		first, err := NewSet(Config{NumBuckets: numBuckets, BucketSize: size, TrackPostings: true})
		if err != nil {
			t.Fatal(err)
		}
		sets := []*Set{first}
		refs := []*refSet{{buckets: numBuckets, size: size, lists: map[postings.WordID][]postings.DocID{}}}
		next := postings.DocID(0) // every Add's documents lie above all earlier ones
		newDocs := func(n int) []postings.DocID {
			docs := make([]postings.DocID, n)
			for i := range docs {
				next += postings.DocID(r.Intn(300)) + 1
				docs[i] = next
			}
			return docs
		}
		for step := 0; step < 600; step++ {
			k := r.Intn(len(sets))
			s, ref := sets[k], refs[k]
			var op string
			switch x := r.Intn(20); {
			case x < 12: // an Add: a new word, an append, or one that evicts
				w := postings.WordID(r.Intn(words))
				n := r.Intn(6) + 1
				op = fmt.Sprintf("append %d postings to word %d", n, w)
				if _, ok := ref.lists[w]; !ok {
					op = fmt.Sprintf("add word %d with %d postings", w, n)
				}
				if x < 2 {
					n = r.Intn(size) + size/2
					op = fmt.Sprintf("add %d postings to word %d, evicting", n, w)
				}
				docs := newDocs(n)
				evs, err := s.Add(w, n, postings.NewList(slices.Clone(docs)))
				if err != nil {
					t.Fatalf("seed %d step %d: %s: %v", seed, step, op, err)
				}
				want := map[postings.WordID][]postings.DocID{}
				for _, v := range ref.words(int(w) % numBuckets) {
					want[v] = slices.Clone(ref.lists[v])
				}
				want[w] = append(want[w], docs...)
				wantEvicted := ref.add(w, docs)
				if len(evs) != len(wantEvicted) {
					t.Fatalf("seed %d step %d: %s: evicted %d lists, want %d", seed, step, op, len(evs), len(wantEvicted))
				}
				for i, ev := range evs {
					if ev.Word != wantEvicted[i] || ev.Count != len(want[ev.Word]) || !slices.Equal(ev.List.Docs(), want[ev.Word]) {
						t.Fatalf("seed %d step %d: %s: eviction %d is word %d %v, want word %d %v",
							seed, step, op, i, ev.Word, ev.List.Docs(), wantEvicted[i], want[wantEvicted[i]])
					}
				}
			case x < 15: // Purge a random set of the documents issued so far
				var swept []postings.DocID
				for i := r.Intn(40); i > 0 && next > 0; i-- {
					swept = append(swept, postings.DocID(r.Intn(int(next)+1)))
				}
				slices.Sort(swept)
				swept = slices.Compact(swept)
				op = fmt.Sprintf("purge %d documents", len(swept))
				s.Purge(swept)
				ref.purge(swept)
			case x < 18: // DecodeBucket an image of the bucket less one word
				i := r.Intn(numBuckets)
				if ws := ref.words(i); len(ws) > 0 {
					delete(ref.lists, ws[r.Intn(len(ws))])
				}
				op = fmt.Sprintf("decode bucket %d", i)
				image := ref.image(i)
				if n, err := s.DecodeBucket(i, image); err != nil || n != len(image) {
					t.Fatalf("seed %d step %d: %s: %d of %d bytes, %v", seed, step, op, n, len(image), err)
				}
			default: // Clone a set; the clone replaces the second side
				op = fmt.Sprintf("clone set %d", k)
				c, cref := s.Clone(), ref.clone()
				if len(sets) == 1 {
					sets, refs = append(sets, c), append(refs, cref)
				} else {
					sets[1-k], refs[1-k] = c, cref
				}
			}
			for j, s := range sets {
				total := 0
				for i := 0; i < numBuckets; i++ {
					got, want := s.EncodeBucket(i, nil), refs[j].image(i)
					if !bytes.Equal(got, want) {
						t.Fatalf("seed %d step %d (%s): set %d bucket %d image\n got %x\nwant %x", seed, step, op, j, i, got, want)
					}
					total += len(got)
				}
				if s.EncodedSize() != total {
					t.Fatalf("seed %d step %d (%s): set %d EncodedSize %d, images %d bytes", seed, step, op, j, s.EncodedSize(), total)
				}
				for w := postings.WordID(0); w < words; w++ {
					if got, want := s.List(w).Docs(), refs[j].lists[w]; !slices.Equal(got, want) || s.Contains(w) != (want != nil) {
						t.Fatalf("seed %d step %d (%s): set %d word %d = %v, want %v", seed, step, op, j, w, got, want)
					}
				}
			}
		}
	}
}
