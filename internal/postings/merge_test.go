package postings

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestUnionAllBasics(t *testing.T) {
	cases := []struct {
		name  string
		lists [][]DocID
		want  []DocID
	}{
		{"none", nil, nil},
		{"all empty", [][]DocID{nil, {}, nil}, nil},
		{"single", [][]DocID{{3, 7, 9}}, []DocID{3, 7, 9}},
		{"two", [][]DocID{{1, 4}, {2, 4}}, []DocID{1, 2, 4}},
		{"disjoint", [][]DocID{{1, 4}, {2, 5}, {3}}, []DocID{1, 2, 3, 4, 5}},
		{"interleaved", [][]DocID{{1, 10, 20}, {5, 15}, {2, 30}}, []DocID{1, 2, 5, 10, 15, 20, 30}},
		{"shared", [][]DocID{{1, 4}, {2, 4}, {3, 4}}, []DocID{1, 2, 3, 4}},
		{"duplicates dropped", [][]DocID{{1, 3, 5}, {3, 5, 7}, {5}}, []DocID{1, 3, 5, 7}},
	}
	for _, tc := range cases {
		lists := make([]*List, len(tc.lists))
		for i, docs := range tc.lists {
			lists[i] = NewList(docs)
		}
		if got := UnionAll(lists); !slices.Equal(got.Docs(), tc.want) {
			t.Errorf("%s: UnionAll = %v, want %v", tc.name, got.Docs(), tc.want)
		}
	}
}

// TestUnionAllEdgeCases pins the boundary behaviour the engine's fan-out
// relies on: duplicates spanning several shards collapse to one, empty
// shard answers mixed in are harmless, and a merge that reduces to a single
// non-empty list is a passthrough — the input list itself, no copy.
func TestUnionAllEdgeCases(t *testing.T) {
	got := UnionAll([]*List{
		NewList([]DocID{2, 4, 8}),
		NewList([]DocID{2, 6}),
		NewList([]DocID{2, 4, 10}),
	})
	if want := []DocID{2, 4, 6, 8, 10}; !slices.Equal(got.Docs(), want) {
		t.Errorf("cross-shard duplicates: %v, want %v", got.Docs(), want)
	}
	// Empty answers surround the real ones — shards that hold none of the
	// matching documents are the common case.
	got = UnionAll([]*List{nil, NewList([]DocID{5, 9}), {}, NewList([]DocID{1}), nil})
	if want := []DocID{1, 5, 9}; !slices.Equal(got.Docs(), want) {
		t.Errorf("empty answers mixed in: %v, want %v", got.Docs(), want)
	}
	in := NewList([]DocID{3, 1 << 20, 1 << 30})
	if got = UnionAll([]*List{nil, in, {}}); got != in {
		t.Errorf("single-list merge is not a passthrough: got %v", got.Docs())
	}
}

func TestUnionAllRandomAgainstSort(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		lists := make([]*List, 1+r.Intn(5))
		var want []DocID
		for i := range lists {
			var docs []DocID
			for j := 0; j < r.Intn(20); j++ {
				docs = append(docs, DocID(r.Intn(100)+1))
			}
			lists[i] = FromDocs(docs)
			want = append(want, docs...)
		}
		slices.Sort(want)
		want = slices.Compact(want)
		if got := UnionAll(lists); !slices.Equal(got.Docs(), want) {
			t.Fatalf("trial %d: %v, want %v", trial, got.Docs(), want)
		}
	}
}

func TestQuickUnionAllMatchesFold(t *testing.T) {
	f := func(seed int64, k uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(k%8) + 1
		lists := make([]*List, n)
		for i := range lists {
			lists[i] = randomList(r, r.Intn(50))
		}
		fast := UnionAll(lists)
		slow := &List{}
		for _, l := range lists {
			slow = Union(slow, l)
		}
		return slices.Equal(fast.Docs(), slow.Docs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionAll(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	lists := make([]*List, 50)
	for i := range lists {
		lists[i] = randomList(r, 500)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UnionAll(lists)
	}
}

func BenchmarkUnionFoldBaseline(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	lists := make([]*List, 50)
	for i := range lists {
		lists[i] = randomList(r, 500)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := &List{}
		for _, l := range lists {
			out = Union(out, l)
		}
	}
}
