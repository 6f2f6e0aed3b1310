package route

import (
	"testing"

	"dualindex/internal/postings"
)

// goldenDocs is a fixed identifier set spanning small ids, round numbers
// and the uint32 extremes.
var goldenDocs = []postings.DocID{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
	100, 1000, 4096, 65536, 1000000, 4294967295,
}

// TestHashGoldenValues pins the SplitMix64 routing: the shard assignment of
// a fixed document set must match these hard-coded values forever. Any
// drift — a refactor of the finalizer, a platform-dependent conversion —
// would silently strand the documents of every existing hash-routed index
// on the wrong shard, so this test is the routing contract.
func TestHashGoldenValues(t *testing.T) {
	golden := map[int][]int{
		2: {1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0},
		4: {1, 2, 0, 0, 0, 0, 0, 0, 3, 1, 1, 0, 1, 1, 1, 1, 0, 3, 0, 1, 2, 0},
		8: {5, 2, 0, 4, 4, 4, 4, 0, 7, 1, 5, 4, 1, 1, 1, 5, 4, 7, 0, 5, 6, 4},
	}
	for n, want := range golden {
		h := Hash{N: n}
		for i, doc := range goldenDocs {
			if got := h.Shard(doc); got != want[i] {
				t.Errorf("Hash{N:%d}.Shard(%d) = %d, want %d", n, doc, got, want[i])
			}
		}
	}
}

// TestHashSingleShard pins the Shards=1 degenerate case the engine's
// trace-identity gate relies on: every document routes to shard 0 with no
// hashing at all.
func TestHashSingleShard(t *testing.T) {
	for _, n := range []int{0, 1} {
		h := Hash{N: n}
		for _, doc := range goldenDocs {
			if got := h.Shard(doc); got != 0 {
				t.Errorf("Hash{N:%d}.Shard(%d) = %d, want 0", n, doc, got)
			}
		}
	}
}

// TestRangeSpans checks the contiguous-span semantics: spans of
// DefaultRangeSpan consecutive identifiers rotate over the shards.
func TestRangeSpans(t *testing.T) {
	r := Range{N: 3}
	const s = DefaultRangeSpan
	want := map[postings.DocID]int{
		1: 0, s: 0, // span 0 → shard 0
		s + 1: 1, 2 * s: 1, // span 1 → shard 1
		2*s + 1: 2, 3 * s: 2, // span 2 → shard 2
		3*s + 1: 0, // wraps
		6*s + 1: 0, // span 6 → shard 0
		0:       0,
	}
	for doc, shard := range want {
		if got := r.Shard(doc); got != shard {
			t.Errorf("Range{N:3}.Shard(%d) = %d, want %d", doc, got, shard)
		}
	}
}

// TestRoundRobin checks the alternating assignment.
func TestRoundRobin(t *testing.T) {
	r := RoundRobin{N: 4}
	for doc := postings.DocID(1); doc <= 100; doc++ {
		if got, want := r.Shard(doc), int((doc-1)%4); got != want {
			t.Errorf("RoundRobin{4}.Shard(%d) = %d, want %d", doc, got, want)
		}
	}
}

// TestRoutersTotal: every router must map every identifier into range, for
// every shard count — a stranded document is unreachable forever.
func TestRoutersTotal(t *testing.T) {
	for n := 1; n <= 7; n++ {
		routers := []Router{Hash{N: n}, Range{N: n}, RoundRobin{N: n}}
		for _, r := range routers {
			for _, doc := range goldenDocs {
				if got := r.Shard(doc); got < 0 || got >= n {
					t.Fatalf("%s router, %d shards: doc %d → shard %d out of range",
						r.Kind(), n, doc, got)
				}
			}
		}
	}
}

// TestNew covers the constructor's normalization and error paths.
func TestNew(t *testing.T) {
	if r, err := New("", 4); err != nil || r.Kind() != KindHash || r.Shards() != 4 {
		t.Errorf("New(\"\", 4) = %v, %v; want 4-shard hash", r, err)
	}
	if r, err := New(KindRange, 2); err != nil || r != (Range{N: 2}) {
		t.Errorf("New(range, 2) = %#v, %v; want Range{N: 2}", r, err)
	}
	if _, err := New("zoned", 2); err == nil {
		t.Error("unknown routing kind accepted")
	}
	if _, err := New(KindHash, 0); err == nil {
		t.Error("zero shard count accepted")
	}
}

// TestHashBalance: the hash router must not be grossly unbalanced over a
// contiguous identifier run (the common ingest pattern).
func TestHashBalance(t *testing.T) {
	counts := make([]int, 4)
	h := Hash{N: 4}
	for doc := postings.DocID(1); doc <= 400; doc++ {
		counts[h.Shard(doc)]++
	}
	for i, c := range counts {
		if c < 40 {
			t.Errorf("shard %d got only %d of 400 docs: %v", i, c, counts)
		}
	}
}
