package query

import (
	"fmt"
	"slices"
	"testing"

	"dualindex/internal/postings"
)

// TestMergeDocLists checks the package's two document-list merges, the tier
// merge (TieredSource.List) and a truncation's expansion (PrefixStep), on
// the same inputs: each answer is the sorted union with duplicates dropped.
func TestMergeDocLists(t *testing.T) {
	cases := []struct {
		name  string
		lists [][]postings.DocID
		want  []postings.DocID
	}{
		{"empty", nil, nil},
		{"all empty", [][]postings.DocID{nil, {}, nil}, nil},
		{"single", [][]postings.DocID{{3, 7, 9}}, []postings.DocID{3, 7, 9}},
		{"disjoint", [][]postings.DocID{{1, 4}, {2, 5}, {3}}, []postings.DocID{1, 2, 3, 4, 5}},
		{"interleaved", [][]postings.DocID{{1, 10, 20}, {5, 15}, {2, 30}},
			[]postings.DocID{1, 2, 5, 10, 15, 20, 30}},
		{"duplicates dropped", [][]postings.DocID{{1, 3, 5}, {3, 5, 7}}, []postings.DocID{1, 3, 5, 7}},
	}
	for _, tc := range cases {
		tiers := make([]Source, len(tc.lists))
		words := mapSource{}
		for i, docs := range tc.lists {
			tiers[i] = mapTier{"w": docs}
			words[fmt.Sprintf("w%d", i)] = docs
		}
		l, err := NewTieredSource(tiers...).List("w")
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(l.Docs(), tc.want) {
			t.Errorf("%s: tier merge = %v, want %v", tc.name, l.Docs(), tc.want)
		}
		e, err := Parse("w*")
		if err != nil {
			t.Fatal(err)
		}
		if l, err = EvalBoolean(e, prefixSource{words}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(l.Docs(), tc.want) {
			t.Errorf("%s: w* = %v, want %v", tc.name, l.Docs(), tc.want)
		}
	}
}

// TestMergeMatchesEdgeCases pins the boundary behaviour the engine's
// fan-out relies on in the vector merge: identical (doc, score) pairs
// across groups dedupe, empty groups are skipped, and a single surviving
// group is truncated in place.
func TestMergeMatchesEdgeCases(t *testing.T) {
	// The same scored document from two groups collapses to one entry.
	g1 := []Match{{Doc: 1, Score: 9}, {Doc: 5, Score: 4}}
	g2 := []Match{{Doc: 1, Score: 9}, {Doc: 7, Score: 2}}
	got := MergeMatches([][]Match{g1, g2}, 10)
	want := []Match{{Doc: 1, Score: 9}, {Doc: 5, Score: 4}, {Doc: 7, Score: 2}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("duplicate (doc,score) across groups: %v, want %v", got, want)
	}

	// Empty groups around one real group: passthrough, same backing array.
	in := []Match{{Doc: 2, Score: 8}, {Doc: 3, Score: 1}}
	got = MergeMatches([][]Match{nil, {}, in}, 5)
	if len(got) != len(in) || &got[0] != &in[0] {
		t.Errorf("single-group merge is not a passthrough: %v", got)
	}
	// ... and truncation still applies on that path.
	if got = MergeMatches([][]Match{nil, in}, 1); len(got) != 1 || got[0].Doc != 2 {
		t.Errorf("single-group truncation: %v", got)
	}
	if got = MergeMatches([][]Match{nil, {}}, 3); got != nil {
		t.Errorf("all-empty merge: %v, want nil", got)
	}
}

func TestMergeMatches(t *testing.T) {
	g1 := []Match{{Doc: 4, Score: 9}, {Doc: 1, Score: 5}, {Doc: 9, Score: 1}}
	g2 := []Match{{Doc: 2, Score: 7}, {Doc: 8, Score: 5}, {Doc: 3, Score: 2}}
	got := MergeMatches([][]Match{g1, g2}, 4)
	want := []Match{{Doc: 4, Score: 9}, {Doc: 2, Score: 7}, {Doc: 1, Score: 5}, {Doc: 8, Score: 5}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("MergeMatches = %v, want %v", got, want)
	}
	// Ties across groups break by ascending doc: doc 1 (score 5) before doc 8.
	if got[2].Doc != 1 || got[3].Doc != 8 {
		t.Errorf("tie order wrong: %v", got)
	}
	if ms := MergeMatches([][]Match{g1}, 2); len(ms) != 2 || ms[0].Doc != 4 {
		t.Errorf("single group truncation = %v", ms)
	}
	if ms := MergeMatches(nil, 5); ms != nil {
		t.Errorf("empty merge = %v", ms)
	}
	if ms := MergeMatches([][]Match{g1, g2}, 0); ms != nil {
		t.Errorf("k=0 merge = %v", ms)
	}
	if ms := MergeMatches([][]Match{g1, g2}, 100); len(ms) != 6 {
		t.Errorf("k beyond total: %d matches, want 6", len(ms))
	}
}
