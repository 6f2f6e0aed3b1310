package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dualindex/internal/postings"
)

// pruneVocab is the skewed cases' vocabulary, most frequent first: word i
// is in about 0.7/(1+i)^1.1 of the documents, so a few long lists with low
// idf sit beside short ones with high idf — the shape MaxScore prunes. "a"
// and its extensions share a truncation.
var pruneVocab = []string{"a", "ab", "abc", "b", "ba", "c", "d", "e", "f", "g", "h", "i"}

// skewedCase draws a pruning-regime case over documents 1..docs: Zipf
// document frequencies, frequencies mostly 1 with a tenth at 2–3, and a
// few hundred documents that copy another's postings in every list, so
// scores tie at θ. The bag has 4–9 terms and, usually, "a" beside "a*", a
// plain term overlapping its own truncation.
func skewedCase(r *rand.Rand, docs, k int) rankedCase {
	freq := make(map[string][]int, len(pruneVocab))
	for i, w := range pruneVocab {
		f := make([]int, docs+1)
		p := 0.7 / math.Pow(float64(1+i), 1.1)
		for d := 1; d <= docs; d++ {
			if r.Float64() < p {
				f[d] = 1
				if r.Intn(10) == 0 {
					f[d] += 1 + r.Intn(2)
				}
			}
		}
		freq[w] = f
	}
	for i := docs / 10; i > 0; i-- {
		from, to := 1+r.Intn(docs), 1+r.Intn(docs)
		for _, w := range pruneVocab {
			freq[w][to] = freq[w][from]
		}
	}
	src := prefixSource{mapSource{}}
	for w, f := range freq {
		var list []postings.DocID
		for d, c := range f {
			for ; c > 0; c-- {
				list = append(list, postings.DocID(d))
			}
		}
		src.mapSource[w] = list
	}
	var terms []string
	if r.Intn(4) != 0 {
		terms = append(terms, "a", "a*")
	}
	for len(terms) < 4+r.Intn(6) {
		if w := pruneVocab[r.Intn(len(pruneVocab))]; !slices.Contains(terms, w) {
			terms = append(terms, w)
		}
	}
	pl := &Plan{Score: newScorePlan(terms, k)}
	return rankedCase{src: src, pl: pl, total: docs, docs: docs}
}

// walkCost runs c's bag through the walker and returns the postings the
// walk popped or sought, and the postings its lists hold.
func walkCost(t *testing.T, c rankedCase) (visited, total int) {
	t.Helper()
	curs, n, err := openCursors(c.pl.Score, Exec{Src: c.src, Total: c.total})
	if err != nil {
		t.Fatal(err)
	}
	_, visited = rank(curs, c.pl.Score.K, n, nil)
	return visited, n
}

// TestRankedPruningMatchesReference: with MaxScore pruning on, ranked
// execution still returns exactly the reference's answer — documents,
// order and == scores — on skewed lists over thousands of documents, for
// k of 1, 10 and 100, as a bag and under a matching structure. Together
// the bags must visit at most half their postings, so a walker that never
// prunes fails; and a hand-built case whose exact score beats θ by two ulps
// where its bound, summed in another order, falls below it, fails a walker
// that prunes without slack.
func TestRankedPruningMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var visited, total int
	for _, k := range []int{1, 10, 100} {
		for rep := 0; rep < 3; rep++ {
			c := skewedCase(r, 4000, k)
			checkRankedCase(t, c)
			v, n := walkCost(t, c)
			visited, total = visited+v, total+n
			structured := c
			structured.pl = &Plan{Root: randomPruneStep(r), Score: c.pl.Score}
			checkRankedCase(t, structured)
		}
	}
	if 2*visited > total {
		t.Errorf("the bags visited %d of their %d postings, want at most half", visited, total)
	}
	checkRoundingCase(t)
}

// randomPruneStep is a matching structure over the skewed vocabulary
// whose matched set is large enough to fill the heap.
func randomPruneStep(r *rand.Rand) Step {
	word := func() Step { return FetchStep{Word: pruneVocab[r.Intn(4)]} }
	switch r.Intn(3) {
	case 0:
		return UnionStep{L: word(), R: PrefixStep{Prefix: "b"}}
	case 1:
		return IntersectStep{L: word(), R: UnionStep{L: word(), R: word()}}
	}
	return DiffStep{L: PrefixStep{Prefix: "a"}, R: FetchStep{Word: pruneVocab[4+r.Intn(4)]}}
}

// checkRoundingCase walks a bag whose answer hangs on the pruning slack,
// its cursors opened by hand in cursor order. With k = 1, document 1 holds
// only "w" and sets θ = 1.25 + 2⁻⁵²; document 2 holds "z" (1.25) and four
// tiny terms "a"–"d" (2⁻⁵³ each), which are non-essential under θ. Added
// in cursor order, document 2 scores 1.25 + 2⁻⁵¹ and must win. Its bound,
// summed from "z" down, rounds each tiny term away and reaches 1.25 < θ: a
// walker that trusts the bound without slack drops the winner.
func checkRoundingCase(t *testing.T) {
	t.Helper()
	tiny := math.Ldexp(1, -53)
	curs := []cursor{
		{docs: []postings.DocID{2}, score: tiny},          // a
		{docs: []postings.DocID{2}, score: tiny},          // b
		{docs: []postings.DocID{2}, score: tiny},          // c
		{docs: []postings.DocID{2}, score: tiny},          // d
		{docs: []postings.DocID{1}, score: 1.25 + 2*tiny}, // w
		{docs: []postings.DocID{2}, score: 1.25},          // z
	}
	got, _ := rank(curs, 1, 6, nil)
	if want := []Match{{Doc: 2, Score: 1.25 + 4*tiny}}; !slices.Equal(got, want) {
		t.Errorf("rounding case ranked %v, want %v", got, want)
	}
}

// FuzzRankedPruning is TestRankedPruningMatchesReference's property over
// fuzzed seeds: a skewed case of up to 1,500 documents, as a bag or under
// a matching structure, and k below its candidate count, so the heap fills
// and pruning starts. `make check`
// gives it a short live burst.
func FuzzRankedPruning(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 42, 1994, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		docs := 50 + r.Intn(1450)
		c := skewedCase(r, docs, docs+1)
		if r.Intn(2) == 0 {
			c.pl = &Plan{Root: randomPruneStep(r), Score: c.pl.Score}
		}
		all, err := referenceRanked(c.pl, Exec{Src: c.src, Total: c.total})
		if err != nil {
			t.Fatal(err)
		}
		score := *c.pl.Score
		score.K = 1 + r.Intn(max(1, len(all)-1))
		c.pl = &Plan{Root: c.pl.Root, Score: &score}
		checkRankedCase(t, c)
	})
}

// BenchmarkExecuteRankedBag times the benchmark's ranked mix in isolation:
// 8-term bags, k = 10, over 20,000 documents. Each bag draws six words
// from a Zipf(1.15) core vocabulary, whose list lengths fall as
// 0.5·N/(1+rank), and two rare words of 10–60 postings.
func BenchmarkExecuteRankedBag(b *testing.B) {
	const n = 20_000
	r := rand.New(rand.NewSource(1))
	src := mapSource{}
	list := func(word string, df int) {
		if _, ok := src[word]; ok {
			return
		}
		docs := make([]postings.DocID, 0, df)
		for d := 1; d <= n; d++ {
			if r.Intn(n) < df {
				docs = append(docs, postings.DocID(d))
			}
		}
		src[word] = docs
	}
	zipf := rand.NewZipf(r, 1.15, 1, 1999)
	plans := make([]*Plan, 64)
	var all []string
	for i := range plans {
		var words []string
		for len(words) < 8 {
			w := ""
			if len(words) < 6 {
				rank := int(zipf.Uint64())
				w = fmt.Sprintf("core%04d", rank)
				list(w, n/(2*(1+rank)))
			} else {
				w = fmt.Sprintf("rare%05d", r.Intn(50_000))
				list(w, 10+r.Intn(51))
			}
			words = append(words, w)
		}
		plans[i] = NewRankedBag(words, 10)
		all = append(all, words...)
	}
	pre, err := Prefetch(all, src, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteRanked(plans[i%len(plans)], Exec{Src: pre, Total: n}); err != nil {
			b.Fatal(err)
		}
	}
}
