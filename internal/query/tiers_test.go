package query

import (
	"errors"
	"slices"
	"testing"

	"dualindex/internal/postings"
)

// mapTier is one fake read tier: word → (docs, each freq 1).
type mapTier map[string][]postings.DocID

func (m mapTier) List(word string) (*postings.List, error) {
	return postings.FromDocs(m[word]), nil
}

// prefixTier additionally expands prefixes, like the shard's on-disk tier.
type prefixTier struct {
	mapTier
	words []string
}

func (p prefixTier) WordsWithPrefix(prefix string) []string {
	var out []string
	for _, w := range p.words {
		if len(w) >= len(prefix) && w[:len(prefix)] == prefix {
			out = append(out, w)
		}
	}
	return out
}

type errTier struct{ err error }

func (e errTier) List(string) (*postings.List, error) { return nil, e.err }

func TestTieredSourceMergesDisjointTiers(t *testing.T) {
	disk := mapTier{"cat": {1, 3}, "dog": {2}}
	flushing := mapTier{"cat": {5}}
	live := mapTier{"cat": {7, 9}, "fox": {8}}
	ts := NewTieredSource(disk, flushing, live)

	l, err := ts.List("cat")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l.Docs(), []postings.DocID{1, 3, 5, 7, 9}; !slices.Equal(got, want) {
		t.Fatalf("cat = %v, want %v", got, want)
	}
	if l, _ := ts.List("fox"); !slices.Equal(l.Docs(), []postings.DocID{8}) {
		t.Fatalf("fox = %v, want [8]", l.Docs())
	}
	if l, _ := ts.List("absent"); l.Len() != 0 {
		t.Fatalf("absent = %v, want empty", l.Docs())
	}
}

// A document reported by two tiers dedups into one posting — the per-shard
// answer the cross-shard merge receives never lists a document twice.
func TestTieredSourceDedupsSharedDocs(t *testing.T) {
	ts := NewTieredSource(mapTier{"cat": {4, 4}}, mapTier{"cat": {4, 6}})
	l, err := ts.List("cat")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l.Docs(), []postings.DocID{4, 6}; !slices.Equal(got, want) {
		t.Fatalf("docs = %v, want %v", got, want)
	}
}

func TestTieredSourceSkipsNilTiers(t *testing.T) {
	ts := NewTieredSource(nil, mapTier{"cat": {2}}, nil)
	l, err := ts.List("cat")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(l.Docs(), []postings.DocID{2}) {
		t.Fatalf("docs = %v, want [2]", l.Docs())
	}
}

func TestTieredSourcePropagatesErrors(t *testing.T) {
	boom := errors.New("disk tier failed")
	ts := NewTieredSource(errTier{boom}, mapTier{"cat": {1}})
	if _, err := ts.List("cat"); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestTieredSourcePrefixExpansion(t *testing.T) {
	disk := prefixTier{mapTier: mapTier{"cat": {1}}, words: []string{"cat", "catalog", "dog"}}
	ts := NewTieredSource(disk, mapTier{"catalog": {9}})
	if got, want := ts.WordsWithPrefix("cat"), []string{"cat", "catalog"}; !slices.Equal(got, want) {
		t.Fatalf("prefix expansion = %v, want %v", got, want)
	}
	// No tier expands prefixes → nil, and the executor reports truncation
	// unsupported downstream.
	if got := NewTieredSource(mapTier{}).WordsWithPrefix("cat"); got != nil {
		t.Fatalf("expansion without a PrefixSource tier = %v, want nil", got)
	}
}
