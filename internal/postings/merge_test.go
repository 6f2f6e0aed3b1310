package postings

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestIteratorWalk(t *testing.T) {
	l := FromDocs([]DocID{2, 5, 9})
	it := l.Iter()
	var got []DocID
	for it.Next() {
		got = append(got, it.Posting().Doc)
	}
	if len(got) != 3 || got[0] != 2 || got[2] != 9 {
		t.Fatalf("walk = %v", got)
	}
	if it.Next() {
		t.Fatal("Next after exhaustion")
	}
	if (&List{}).Iter().Next() {
		t.Fatal("empty iterator advanced")
	}
}

func TestUnionAllBasics(t *testing.T) {
	if UnionAll(nil).Len() != 0 {
		t.Fatal("empty UnionAll not empty")
	}
	single := FromDocs([]DocID{1, 2})
	if got := UnionAll([]*List{single}); !slices.Equal(got.Postings(), single.Postings()) {
		t.Fatal("single-list UnionAll differs")
	}
	got := UnionAll([]*List{
		FromDocs([]DocID{1, 4}),
		FromDocs([]DocID{2, 4}),
		FromDocs([]DocID{3, 4}),
	})
	if len(got.Docs()) != 4 {
		t.Fatalf("UnionAll = %v", got.Docs())
	}
	if got.Postings()[3].Freq != 3 {
		t.Fatalf("shared doc freq = %d, want 3", got.Postings()[3].Freq)
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
		return slices.Equal(fast.Postings(), slow.Postings())
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
