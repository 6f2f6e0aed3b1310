package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"dualindex/internal/corpus"
)

// The acceptance driver judges the benchmark's steadiness across runs that
// each use another seed, so everything the seed does not need to decide is
// fixed: how many documents each day brings, how many queries of each kind
// are asked, and which Zipf ranks the query terms come from (stratified
// draws, below). The seed still decides every document's words, the order
// of everything, and which documents phrases are lifted from.

// daySize is the fixed volume pattern of the News stream: the paper's
// weekly dip (Saturdays are the smallest update of the week) and its one
// anomalously small update on day 41, without the generator's ±20 % daily
// jitter, which at benchmark scale moves per-document metrics by more than
// their regression bounds.
func daySize(day, docsPerDay int) int {
	n := float64(docsPerDay)
	if day%7 == 5 {
		n *= 0.35
	}
	if day == 41 {
		n *= 0.05
	}
	return max(1, int(n))
}

// genCorpus draws the seeded News corpus and deals its documents, in
// DocID order, into days of fixed size. It returns the batches: the script
// renders their texts, the phrase generator reads their word ids, and the
// core-only layer probe replays them through internal/core.
func genCorpus(seed int64, days, docsPerDay int) ([]*corpus.Batch, error) {
	cfg := corpus.DefaultConfig()
	cfg.Seed = seed
	cfg.Days = days
	cfg.DocsPerDay = docsPerDay + docsPerDay/6 + 8 // the generator's own day sizes average ~0.9 of this
	cfg.TinyUpdateDay = -1
	drawn, err := corpus.GenerateAll(cfg)
	if err != nil {
		return nil, err
	}
	var stream []corpus.Document
	for _, b := range drawn {
		stream = append(stream, b.Docs...)
	}
	out := make([]*corpus.Batch, days)
	for d := range out {
		n := daySize(d, docsPerDay)
		if n > len(stream) {
			return nil, fmt.Errorf("bench: corpus ran out of documents on day %d", d)
		}
		out[d] = &corpus.Batch{Day: d, Docs: stream[:n:n]}
		stream = stream[n:]
	}
	return out, nil
}

// Query generator constants (see README "Query generator").
const (
	coreVocab = 2000  // term ids [0, coreVocab) are the core vocabulary
	rareVocab = 50000 // the next rareVocab ids are the rare one
	coreShare = 0.70  // of query terms
	rankTerms = 8     // terms in a ranked bag
	rankK     = 10    // Query(q, rankK)
	// phraseRank: a phrase is the first adjacent word pair of a document
	// whose words both rank below the phraseRank most frequent. Pairs of
	// more frequent words verify thousands of candidate documents (a
	// quarter second each), pairs of rarer ones none; a uniformly chosen
	// pair makes phrase cost span four orders of magnitude and its median
	// jump eightfold between seeds.
	phraseRank = 80
)

// zipfTable is the cumulative distribution of P(k) ∝ (1+k)^-s over
// [0, n) — rand.Zipf's distribution with v = 1, invertible.
type zipfTable []float64

func newZipfTable(s float64, n int) zipfTable {
	t := make(zipfTable, n)
	var total float64
	for k := range t {
		total += math.Pow(float64(1+k), -s)
		t[k] = total
	}
	for k := range t {
		t[k] /= total
	}
	return t
}

// at returns the rank at quantile u in [0, 1).
func (t zipfTable) at(u float64) int {
	return min(sort.SearchFloat64s(t, u), len(t)-1)
}

// deck deals the values 0..len(shares)-1 in shuffled rounds in which value
// i appears exactly shares[i] times: a random order with fixed proportions.
type deck struct {
	shares []int
	left   []int
}

func (d *deck) deal(rng *rand.Rand) int {
	if len(d.left) == 0 {
		for v, n := range d.shares {
			for i := 0; i < n; i++ {
				d.left = append(d.left, v)
			}
		}
		rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	v := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return v
}

// queryGen draws query terms with the corpus's own skew, so the lists a
// query reads have the corpus's length distribution: 70 % from the core
// vocabulary, Zipf(1.15) (long lists), 30 % from the rare one, Zipf(1.25)
// (short lists, most of them in buckets). Terms come in stratified rounds
// of termRound: round r takes the quantiles (k+offset_r)/termRound of the
// mixture, shuffled, so every run asks for the same mix of frequent and
// rare terms whatever its seed, in another order and with other rare words.
type queryGen struct {
	rng   *rand.Rand
	core  zipfTable
	rare  zipfTable
	terms []string
	shape deck // 0: (a and b) or c, 1: a and b
}

const termRound = 1024

func newQueryGen(seed int64) *queryGen {
	return &queryGen{
		rng:   rand.New(rand.NewSource(seed*7919 + 17)),
		core:  newZipfTable(1.15, coreVocab),
		rare:  newZipfTable(1.25, rareVocab),
		shape: deck{shares: []int{3, 2}},
	}
}

func (g *queryGen) term() string {
	if len(g.terms) == 0 {
		offset := g.rng.Float64()
		for k := 0; k < termRound; k++ {
			u := (float64(k) + offset) / termRound
			id := g.core.at(u / coreShare)
			if u >= coreShare {
				id = coreVocab + g.rare.at((u-coreShare)/(1-coreShare))
			}
			g.terms = append(g.terms, corpus.WordString(corpus.WordID(id)))
		}
		g.rng.Shuffle(len(g.terms), func(i, j int) { g.terms[i], g.terms[j] = g.terms[j], g.terms[i] })
	}
	t := g.terms[len(g.terms)-1]
	g.terms = g.terms[:len(g.terms)-1]
	return t
}

// boolean returns "(a and b) or c" (60 %) or "a and b" (40 %).
func (g *queryGen) boolean() (string, []string) {
	a, b := g.term(), g.term()
	if g.shape.deal(g.rng) == 0 {
		c := g.term()
		return "(" + a + " and " + b + ") or " + c, []string{a, b, c}
	}
	return a + " and " + b, []string{a, b}
}

// ranked returns an 8-term bag for Query(q, 10).
func (g *queryGen) ranked() (string, []string) {
	terms := make([]string, rankTerms)
	for i := range terms {
		terms[i] = g.term()
	}
	return strings.Join(terms, " "), terms
}

// phrase returns two words adjacent in doc (whose words are sorted by id,
// which is the order corpus.DocText writes them in, so by position too):
// the first pair past the phraseRank most frequent words. ok is false for
// a document with no such pair.
func (g *queryGen) phrase(doc corpus.Document) (q string, terms []string, ok bool) {
	i := sort.Search(len(doc.Words), func(i int) bool { return doc.Words[i] >= phraseRank })
	if i+1 >= len(doc.Words) {
		return "", nil, false
	}
	a, b := corpus.WordString(doc.Words[i]), corpus.WordString(doc.Words[i+1])
	return a + " " + b, []string{a, b}, true
}

// markerWord encodes n as a word no corpus word can equal: corpus words
// alternate consonant and vowel and never contain 'x'. Letters only — the
// lexer splits digits off into their own tokens.
func markerWord(n int) string {
	var b strings.Builder
	b.WriteString("xq")
	for {
		b.WriteByte(byte('a' + n%26))
		n /= 26
		if n == 0 {
			return b.String()
		}
	}
}
