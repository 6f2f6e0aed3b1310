package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dualindex/internal/postings"
)

// rankVocab is the randomized cases' vocabulary: the prefixes "a", "b" and
// "c" each expand to several words, so a "p*" scoring term overlaps the
// plain terms it expands to.
var rankVocab = []string{"a", "ab", "abc", "b", "ba", "c", "ca", "d", "e", "f"}

// rankTerms are the scoring terms a case draws from: plain words, words with
// no list, and truncations.
var rankTerms = append(slices.Clone(rankVocab), "zz", "a*", "b*", "c*", "z*")

// rankedCase is one randomized ranked execution: a source, a plan over it
// and the collection size.
type rankedCase struct {
	src   prefixSource
	pl    *Plan
	total int
	docs  int // documents 1..docs may appear in the lists
}

// randomRankedCase draws a case: random lists with freqs 1–3, where some
// documents copy another's postings in every list (forcing score ties); up
// to 9 scoring terms with non-integer weights under either scoring; k from 1
// to past the candidate count; and, half the time, a random matching
// structure that may select documents no scoring term touches.
func randomRankedCase(r *rand.Rand) rankedCase {
	n := 1 + r.Intn(60)
	freq := make(map[string][]int, len(rankVocab))
	for _, w := range rankVocab {
		f := make([]int, n+1)
		density := r.Float64()
		for d := 1; d <= n; d++ {
			if r.Float64() < density {
				f[d] = 1 + r.Intn(3)
			}
		}
		freq[w] = f
	}
	for i := r.Intn(6); i > 0; i-- {
		from, to := 1+r.Intn(n), 1+r.Intn(n)
		for _, w := range rankVocab {
			freq[w][to] = freq[w][from]
		}
	}
	src := prefixSource{mapSource{}}
	for w, f := range freq {
		var docs []postings.DocID
		for d, c := range f {
			for ; c > 0; c-- {
				docs = append(docs, postings.DocID(d))
			}
		}
		src.mapSource[w] = docs
	}

	mode := ScoringVector
	if r.Intn(2) == 0 {
		mode = ScoringBM25
	}
	terms := map[string]float64{}
	for i := 1 + r.Intn(9); i > 0; i-- {
		weight := 1.0
		if r.Intn(4) != 0 {
			weight = 0.05 + 3*r.Float64()
		}
		terms[rankTerms[r.Intn(len(rankTerms))]] = weight
	}
	pl := &Plan{Score: &ScorePlan{Mode: mode, Terms: terms, K: 1 + r.Intn(n+5)}}
	if r.Intn(2) == 0 {
		pl.Root = randomStep(r, 3)
	}
	total := n + r.Intn(10)
	if r.Intn(8) == 0 {
		total = 0 // clamped by EffectiveCollectionSize
	}
	return rankedCase{src: src, pl: pl, total: total, docs: n}
}

// randomStep builds a random matching structure over the vocabulary.
func randomStep(r *rand.Rand, depth int) Step {
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(4) == 0 {
			return PrefixStep{Prefix: string(rune('a' + r.Intn(3)))}
		}
		return FetchStep{Word: rankVocab[r.Intn(len(rankVocab))]}
	}
	l, rr := randomStep(r, depth-1), randomStep(r, depth-1)
	switch r.Intn(3) {
	case 0:
		return IntersectStep{L: l, R: rr}
	case 1:
		return UnionStep{L: l, R: rr}
	}
	return DiffStep{L: l, R: rr}
}

// checkRankedCase runs c through ExecuteRanked and the reference and
// requires the same documents in the same order with == scores, and an
// answer whose capacity is its length.
func checkRankedCase(t *testing.T, c rankedCase) {
	t.Helper()
	env := Exec{Src: c.src, Total: c.total}
	want, err := referenceRanked(c.pl, env)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	got, err := ExecuteRanked(c.pl, env)
	if err != nil {
		t.Fatalf("ExecuteRanked: %v", err)
	}
	if len(got) != len(want) || cap(got) != len(got) {
		t.Fatalf("plan %+v root %v: got %v (cap %d), want %v", *c.pl.Score, c.pl.Root, got, cap(got), want)
	}
	for i := range got {
		if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score {
			t.Fatalf("plan %+v root %v: match %d = %+v, want %+v\ngot  %v\nwant %v",
				*c.pl.Score, c.pl.Root, i, got[i], want[i], got, want)
		}
	}
}

// TestRankedMatchesReference: document-at-a-time execution into a k-heap
// returns exactly the reference's term-at-a-time map-and-sort answer — the
// same documents, in the same order, with bit-identical scores — over random
// lists, both scorings, overlapping truncations, forced ties, every k and
// matching structures. It also checks that the draw reaches the cases that
// matter.
func TestRankedMatchesReference(t *testing.T) {
	var ties, zeroScored, pastCandidates, prefixOverlap int
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		c := randomRankedCase(r)
		checkRankedCase(t, c)

		full := *c.pl.Score
		full.K = c.docs + 1
		all, _ := referenceRanked(&Plan{Root: c.pl.Root, Score: &full}, Exec{Src: c.src, Total: c.total})
		if c.pl.Score.K > len(all) {
			pastCandidates++
		}
		for j := range all {
			if j > 0 && all[j].Score == all[j-1].Score {
				ties++
			}
			if c.pl.Root != nil && all[j].Score == 0 {
				zeroScored++
			}
		}
		for term := range c.pl.Score.Terms {
			if _, ok := c.pl.Score.Terms[term[:1]+"*"]; ok && term[len(term)-1] != '*' {
				prefixOverlap++
			}
		}
	}
	for name, n := range map[string]int{
		"score ties": ties, "zero-scored matches": zeroScored,
		"k past the candidates": pastCandidates, "truncation overlapping a plain term": prefixOverlap,
	} {
		if n == 0 {
			t.Errorf("no case drew %s", name)
		}
	}
}

// FuzzRankedMatchesReference is TestRankedMatchesReference's property over
// fuzzed case seeds. `make check` gives it a short live burst.
func FuzzRankedMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 42, 1994, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkRankedCase(t, randomRankedCase(rand.New(rand.NewSource(seed))))
	})
}

// TestExecuteRankedAllocsFlat: over prefetched lists, ranked execution
// allocates the same number of times whether each term has 1 k or 50 k
// postings — nothing it builds grows with the candidates.
func TestExecuteRankedAllocsFlat(t *testing.T) {
	words := []string{"a", "b", "c"}
	allocs := func(n int) (bag, structured float64) {
		src := mapSource{}
		for i, w := range words {
			docs := make([]postings.DocID, n)
			for j := range docs {
				docs[j] = postings.DocID(j*(i+2) + 1)
			}
			src[w] = docs
		}
		pre, err := Prefetch(words, src, 1)
		if err != nil {
			t.Fatal(err)
		}
		env := Exec{Src: pre, Total: 4 * n}
		bagPlan := NewRankedBag(words, ScoringVector, 10)
		rootPlan := &Plan{Root: FetchStep{Word: "a"}, Score: &ScorePlan{Mode: ScoringBM25, Terms: bagPlan.Score.Terms, K: 10}}
		run := func(pl *Plan) float64 {
			return testing.AllocsPerRun(10, func() {
				if _, err := ExecuteRanked(pl, env); err != nil {
					t.Fatal(err)
				}
			})
		}
		return run(bagPlan), run(rootPlan)
	}
	bag1, root1 := allocs(1_000)
	bag50, root50 := allocs(50_000)
	if bag1 != bag50 {
		t.Errorf("bag: %v allocs at 1k postings per term, %v at 50k", bag1, bag50)
	}
	if root1 != root50 {
		t.Errorf("structured: %v allocs at 1k postings per term, %v at 50k", root1, root50)
	}
}

// BenchmarkExecuteRankedWide times ranked execution when a truncation
// expands to 300 words, so the walk keeps hundreds of cursors open: the
// structured plans x AND y* and x OR y*, and the bag "x y*".
func BenchmarkExecuteRankedWide(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	draw := func(n int) []postings.DocID {
		docs := make([]postings.DocID, n)
		for i := range docs {
			docs[i] = postings.DocID(1 + r.Intn(20_000))
		}
		slices.Sort(docs)
		return docs
	}
	src := prefixSource{mapSource{"x": draw(5_000)}}
	for i := 0; i < 300; i++ {
		src.mapSource[fmt.Sprintf("y%03d", i)] = draw(200)
	}
	pre, err := Prefetch([]string{"x", "y*"}, src, 1)
	if err != nil {
		b.Fatal(err)
	}
	terms := map[string]float64{"x": 1, "y*": 1}
	x, y := FetchStep{Word: "x"}, PrefixStep{Prefix: "y"}
	for _, c := range []struct {
		name string
		root Step
	}{{"and", IntersectStep{L: x, R: y}}, {"or", UnionStep{L: x, R: y}}, {"bag", nil}} {
		pl := &Plan{Root: c.root, Score: &ScorePlan{Mode: ScoringVector, Terms: terms, K: 10}}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ExecuteRanked(pl, Exec{Src: pre, Total: 20_000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
