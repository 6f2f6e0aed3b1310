// Package bucket implements the short-list half of the paper's
// dual-structure index: fixed-size regions of disk (buckets) that each hold
// the inverted lists of many infrequent words. Every inverted list starts
// life as a short list in bucket h(w); when a bucket overflows, its longest
// short list is evicted and becomes a long list. The buckets thereby
// dynamically discover which words are frequent.
//
// Capacity accounting follows the paper exactly: "each posting is charged 1
// unit and each word is charged one unit too", i.e. a bucket's load is the
// number of words it holds plus the number of postings it holds.
//
// Each bucket keeps its short lists as a slice of entries sorted by word.
// An entry holds its list encoded: the body postings.Encode writes after
// the count, so a flush copies bodies into the bucket image instead of
// encoding every posting again. A stored body is never mutated: an append
// stores a new body, the old bytes followed by the new postings' gaps, and
// a read decodes a fresh list. That makes Clone cheap. It copies the bucket
// headers only, and the two sets share every bucket's entries until one of
// them writes to the bucket, which first copies that bucket's entry slice
// for itself.
package bucket

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"dualindex/internal/postings"
)

// Evicted reports a short list pushed out of an overflowing bucket; the
// caller turns it into a long list. List is freshly decoded from the
// evicted body, so the caller owns it.
type Evicted struct {
	Word  postings.WordID
	Count int            // number of postings evicted
	List  *postings.List // nil when the set tracks counts only
}

// entry is one word's short list inside a bucket: its posting count and,
// when the set tracks postings, the list's body (postings.AppendBody from
// base 0) and its last posting, the base an append continues from. A body
// is immutable once stored, so entries are plain values that clones may
// share.
type entry struct {
	word  postings.WordID
	count int32
	last  postings.DocID
	body  []byte // nil in count-only mode
}

// bucketState holds one bucket's lists and cached load.
type bucketState struct {
	entries []entry // sorted by word
	load    int     // words + postings
	// shared marks entries as also referenced by another Set (see Clone):
	// the first write copies the slice before touching it.
	shared bool
}

// find returns the index of w in b's entries, or where it would be inserted.
func (b *bucketState) find(w postings.WordID) (int, bool) {
	i := sort.Search(len(b.entries), func(i int) bool { return b.entries[i].word >= w })
	return i, i < len(b.entries) && b.entries[i].word == w
}

// get returns w's entry, or nil if w has no short list in b.
func (b *bucketState) get(w postings.WordID) *entry {
	if i, ok := b.find(w); ok {
		return &b.entries[i]
	}
	return nil
}

// own makes b's entries private to this Set before a write.
func (b *bucketState) own() {
	if b.shared {
		b.entries = slices.Clone(b.entries)
		b.shared = false
	}
}

// Set is the full bucket data structure: NumBuckets fixed-size buckets.
//
// The Set runs in one of two modes. With TrackPostings, every short list
// stores its actual postings (what a real retrieval system keeps). Without
// it, only posting counts are stored — sufficient for the paper's simulation
// pipeline, which observes that "for our performance evaluation, we do not
// need to know the contents of each inverted list, only its size".
type Set struct {
	numBuckets    int
	bucketSize    int
	trackPostings bool
	buckets       []bucketState
	observer      func(bucket int)
}

// Config sizes a bucket set.
type Config struct {
	NumBuckets    int  // paper variable Buckets
	BucketSize    int  // paper variable BucketSize, in word+posting units
	TrackPostings bool // store real postings, not just counts
}

// NewSet creates an empty bucket set.
func NewSet(cfg Config) (*Set, error) {
	if cfg.NumBuckets <= 0 || cfg.BucketSize <= 1 {
		return nil, fmt.Errorf("bucket: need NumBuckets > 0 and BucketSize > 1, got %+v", cfg)
	}
	s := &Set{
		numBuckets:    cfg.NumBuckets,
		bucketSize:    cfg.BucketSize,
		trackPostings: cfg.TrackPostings,
		buckets:       make([]bucketState, cfg.NumBuckets),
	}
	return s, nil
}

// NumBuckets reports the number of buckets.
func (s *Set) NumBuckets() int { return s.numBuckets }

// Hash is the paper's h(w): a modular-arithmetic hash assigning each word to
// a bucket.
func (s *Set) Hash(w postings.WordID) int { return int(uint32(w) % uint32(s.numBuckets)) }

// SetObserver registers a callback invoked after every bucket mutation —
// one insertion of a new word, one append to an existing word, or one
// eviction — with the index of the changed bucket. It is the sampling hook
// behind the paper's Figure 1 animation. A nil observer disables it.
func (s *Set) SetObserver(fn func(bucket int)) { s.observer = fn }

func (s *Set) notify(bucket int) {
	if s.observer != nil {
		s.observer(bucket)
	}
}

// Contains reports whether word w currently has a short list.
func (s *Set) Contains(w postings.WordID) bool {
	return s.buckets[s.Hash(w)].get(w) != nil
}

// List returns w's short list postings (nil in count-only mode or if
// absent), freshly decoded: the caller owns it.
func (s *Set) List(w postings.WordID) *postings.List {
	if e := s.buckets[s.Hash(w)].get(w); e != nil && s.trackPostings {
		return e.list()
	}
	return nil
}

// list decodes e's body. Every stored body was built by AppendBody or
// checked by DecodeBucket, so a failure is a broken invariant.
func (e *entry) list() *postings.List {
	l, err := postings.DecodeBody(e.body, int(e.count))
	if err != nil {
		panic(fmt.Sprintf("bucket: stored body of word %d: %v", e.word, err))
	}
	return l
}

// WordsIn reports how many words live in bucket i.
func (s *Set) WordsIn(i int) int { return len(s.buckets[i].entries) }

// PostingsIn reports how many postings live in bucket i.
func (s *Set) PostingsIn(i int) int { return s.buckets[i].load - len(s.buckets[i].entries) }

// TotalLoad reports the occupancy of all buckets in units.
func (s *Set) TotalLoad() int {
	sum := 0
	for i := range s.buckets {
		sum += s.buckets[i].load
	}
	return sum
}

// LoadFactor reports how full the bucket space is: total occupancy over
// total capacity, 0 for a space with no capacity.
func (s *Set) LoadFactor() float64 {
	capacity := float64(s.numBuckets) * float64(s.bucketSize)
	if capacity == 0 {
		return 0
	}
	return float64(s.TotalLoad()) / capacity
}

// ForEachWord calls fn for every word currently holding a short list, with
// its posting count, bucket by bucket and by ascending word within a
// bucket. fn must not mutate the set.
func (s *Set) ForEachWord(fn func(w postings.WordID, count int)) {
	for i := range s.buckets {
		for _, e := range s.buckets[i].entries {
			fn(e.word, int(e.count))
		}
	}
}

// TotalWords reports the number of words currently holding short lists.
func (s *Set) TotalWords() int {
	sum := 0
	for i := range s.buckets {
		sum += len(s.buckets[i].entries)
	}
	return sum
}

// Add inserts the in-memory list for word w into bucket h(w): a new short
// list if w is unseen, otherwise an append to its existing short list. If
// the bucket overflows, the longest short list is evicted repeatedly until
// the bucket fits; evicted lists are returned for promotion to long lists.
//
// count must be the number of postings; list may be nil unless the set
// tracks postings. An in-memory list larger than a whole bucket is evicted
// immediately (it cannot fit no matter what else is removed).
func (s *Set) Add(w postings.WordID, count int, list *postings.List) ([]Evicted, error) {
	if count <= 0 {
		return nil, fmt.Errorf("bucket: Add(%d) with count %d", w, count)
	}
	if s.trackPostings {
		if list == nil || list.Len() != count {
			return nil, fmt.Errorf("bucket: Add(%d) needs a list of %d postings", w, count)
		}
	}
	idx := s.Hash(w)
	b := &s.buckets[idx]
	i, ok := b.find(w)
	var have entry
	if ok {
		have = b.entries[i]
	}
	if int64(have.count)+int64(count) > math.MaxInt32 {
		return nil, fmt.Errorf("bucket: word %d would hold over %d postings", w, math.MaxInt32)
	}
	if ok && s.trackPostings && list.Docs()[0] <= have.last {
		return nil, fmt.Errorf("bucket: word %d: %w: have max %d, got %d", w, postings.ErrAppendOrder, have.last, list.Docs()[0])
	}
	b.own()
	if !ok {
		b.entries = slices.Insert(b.entries, i, entry{word: w})
		b.load++ // the word unit
	}
	e := &b.entries[i]
	if s.trackPostings {
		// A new body, never an append to the stored one: clones share it.
		base := uint64(0)
		if ok {
			base = uint64(e.last) + 1
		}
		body := make([]byte, len(e.body), len(e.body)+postings.BodySize(base, list))
		copy(body, e.body)
		e.body = postings.AppendBody(body, base, list)
		e.last = list.MaxDoc()
	}
	e.count += int32(count)
	b.load += count
	s.notify(idx)

	var evicted []Evicted
	for b.load > s.bucketSize {
		ev := s.evictLongest(b)
		evicted = append(evicted, ev)
		s.notify(idx)
	}
	return evicted, nil
}

// evictLongest removes the longest short list from b ("we then pick the
// longest short list ... remove it, and make it a long list"; ties broken
// arbitrarily — here by lowest word id for determinism). b must be owned:
// Add, its only caller, owns it before inserting.
func (s *Set) evictLongest(b *bucketState) Evicted {
	victim := 0
	for i, e := range b.entries {
		// Entries ascend by word, so the first longest is the lowest id.
		if e.count > b.entries[victim].count {
			victim = i
		}
	}
	e := b.entries[victim]
	b.entries = slices.Delete(b.entries, victim, victim+1)
	b.load -= int(e.count) + 1
	ev := Evicted{Word: e.word, Count: int(e.count)}
	if s.trackPostings {
		ev.List = e.list()
	}
	return ev
}

// Purge removes the postings of the documents in swept, a sorted
// document list, from every short list (the deletion sweep); a list left
// empty leaves its bucket. It decodes only the lists whose [first, last]
// range holds a swept document and stores a new body only for those that
// held one. In count-only mode there are no postings to purge.
func (s *Set) Purge(swept []postings.DocID) {
	if !s.trackPostings || len(swept) == 0 {
		return
	}
	for bi := range s.buckets {
		b := &s.buckets[bi]
		for i := 0; i < len(b.entries); i++ {
			e := &b.entries[i]
			lo, _ := slices.BinarySearch(swept, postings.BodyFirst(e.body))
			if lo == len(swept) || swept[lo] > e.last {
				continue
			}
			l := e.list()
			if l.Drop(swept[lo:]) == 0 {
				continue
			}
			b.own()
			e = &b.entries[i]
			b.load -= int(e.count) - l.Len()
			if l.Len() == 0 {
				b.entries = slices.Delete(b.entries, i, i+1)
				b.load--
				i--
				continue
			}
			e.count = int32(l.Len())
			e.last = l.MaxDoc()
			e.body = postings.AppendBody(make([]byte, 0, postings.BodySize(0, l)), 0, l)
		}
	}
}

// Clone returns a copy of the bucket set that evolves independently of the
// original; the engine publishes one as the short-list half of its flush
// snapshot so queries keep reading pre-flush state while the live set
// absorbs a batch. It copies only the bucket headers, so it costs
// O(buckets) and allocates the same however many postings the set holds:
// both sets share every bucket's entries and (immutable) bodies, and the
// first write to a bucket on either side copies that bucket's entry slice.
// Clone marks s's buckets shared, so it must not run concurrently with
// other calls on s. The observer is not copied.
func (s *Set) Clone() *Set {
	for i := range s.buckets {
		s.buckets[i].shared = true
	}
	return &Set{
		numBuckets:    s.numBuckets,
		bucketSize:    s.bucketSize,
		trackPostings: s.trackPostings,
		buckets:       slices.Clone(s.buckets),
	}
}

// EncodedSize reports the number of bytes EncodeBucket writes for all
// buckets together.
func (s *Set) EncodedSize() int {
	var scratch [binary.MaxVarintLen64]byte
	n := 0
	for i := range s.buckets {
		b := &s.buckets[i]
		n += binary.PutUvarint(scratch[:], uint64(len(b.entries)))
		for _, e := range b.entries {
			n += binary.PutUvarint(scratch[:], uint64(e.word)) + binary.PutUvarint(scratch[:], uint64(e.count)) + len(e.body)
		}
	}
	return n
}

// EncodeBucket serialises bucket i for the on-disk flush: varint word count,
// then per word a varint word id and either a varint posting count
// (count-only mode) or the encoded posting list — the count and the stored
// body, which is what postings.Encode writes. Words are written in
// ascending order so encoding is deterministic.
func (s *Set) EncodeBucket(i int, dst []byte) []byte {
	b := &s.buckets[i]
	dst = binary.AppendUvarint(dst, uint64(len(b.entries)))
	for _, e := range b.entries {
		dst = binary.AppendUvarint(dst, uint64(e.word))
		dst = binary.AppendUvarint(dst, uint64(e.count))
		dst = append(dst, e.body...)
	}
	return dst
}

// DecodeBucket replaces bucket i's contents from an EncodeBucket image and
// returns the bytes consumed. An image whose word ids do not strictly
// ascend, whose words do not hash to bucket i, that holds an empty list or
// whose words and postings overfill the bucket is corrupt. On error the
// bucket is left as it was. The set keeps each body as a sub-slice of buf,
// so the caller must not modify buf afterwards; decoding allocates the
// bucket's entry slice and nothing per entry.
func (s *Set) DecodeBucket(i int, buf []byte) (int, error) {
	n, off := postings.Uvarint(buf)
	if off <= 0 {
		return 0, fmt.Errorf("bucket: corrupt bucket %d header", i)
	}
	// An entry takes at least two bytes (word id, then count or list), and
	// two units of the bucket's capacity: a larger count is corrupt, and
	// must not size the allocation below.
	if n > uint64(len(buf)-off)/2 || n > uint64(s.bucketSize)/2 {
		return 0, fmt.Errorf("bucket: bucket %d count %d exceeds its %d-byte image or its size %d", i, n, len(buf)-off, s.bucketSize)
	}
	entries := make([]entry, 0, n)
	load := 0
	for j := uint64(0); j < n; j++ {
		id, k := postings.Uvarint(buf[off:])
		if k <= 0 || id > uint64(^postings.WordID(0)) {
			return 0, fmt.Errorf("bucket: corrupt word id in bucket %d", i)
		}
		off += k
		e := entry{word: postings.WordID(id)}
		if j > 0 && e.word <= entries[j-1].word {
			return 0, fmt.Errorf("bucket: bucket %d word %d does not follow word %d", i, e.word, entries[j-1].word)
		}
		if s.Hash(e.word) != i {
			return 0, fmt.Errorf("bucket: word %d in bucket %d hashes to bucket %d", e.word, i, s.Hash(e.word))
		}
		c, k := postings.Uvarint(buf[off:])
		if k <= 0 {
			return 0, fmt.Errorf("bucket: corrupt count in bucket %d", i)
		}
		off += k
		// The word takes one unit and each posting one more.
		if free := s.bucketSize - load - 1; c == 0 || free < 1 || c > uint64(free) {
			return 0, fmt.Errorf("bucket: bucket %d word %d: %d postings do not fit its size %d", i, e.word, c, s.bucketSize)
		}
		e.count = int32(c)
		if s.trackPostings {
			k, last, err := postings.ScanBody(buf[off:], int(c))
			if err != nil {
				return 0, fmt.Errorf("bucket: bucket %d word %d: %w", i, e.word, err)
			}
			e.body, e.last = buf[off:off+k:off+k], last
			off += k
		}
		entries = append(entries, e)
		load += int(c) + 1
	}
	// A fresh slice replaces the old one, so a clone sharing it is unharmed.
	s.buckets[i] = bucketState{entries: entries, load: load}
	return off, nil
}
