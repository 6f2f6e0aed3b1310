package query

import (
	"container/heap"
	"fmt"
	"math"
	"slices"

	"dualindex/internal/postings"
)

// Ranked retrieval: the paper's vector-space workload, where "a query may be
// derived from a document, consequently the query often contains many words
// (more than 100) and the words tend to be frequently appearing words" — so
// every ranked query reads several long lists. The executor walks those
// lists in place with one cursor each and keeps the best k documents in a
// heap; nothing here grows with the number of scored documents.
//
// Both scoring models score a document by summing, over the query's positive
// leaf terms, a per-term contribution built from the term's document
// frequency (shard-local, the standard distributed-retrieval approximation)
// and the posting's within-document frequency; they differ only in the idf
// and tf shaping, so either model runs from the same plan.
const (
	// ScoringVector is the paper's vector-space model: tf·idf with
	// tf = 1 + ln(freq) and idf = ln(1 + N/df).
	ScoringVector = "vector"
	// ScoringBM25 is Okapi BM25: idf = ln(1 + (N − df + 0.5)/(df + 0.5)),
	// tf saturation tf·(k1+1)/(tf + k1·(1 − b + b·dl/avgdl)). The
	// abstracts-style index stores word sets, not document lengths, so
	// dl/avgdl is taken as 1 — b's length normalization is neutral.
	ScoringBM25 = "bm25"
)

// BM25 parameter defaults (the conventional values).
const (
	BM25K1 = 1.2
	BM25B  = 0.75
)

// ParseScoring resolves a scoring-mode name; "" selects the vector model.
func ParseScoring(s string) (string, error) {
	switch s {
	case "", ScoringVector:
		return ScoringVector, nil
	case ScoringBM25:
		return ScoringBM25, nil
	}
	return "", fmt.Errorf("query: unknown scoring %q (want %q or %q)", s, ScoringVector, ScoringBM25)
}

// EffectiveCollectionSize clamps a collection size to at least one document
// — the single home of the empty-collection idf guard, so the vector model
// and BM25 cannot diverge on the edge case: ln(1 + N/df) and the BM25 idf
// both stay finite and non-negative for every df ≥ 1 once N ≥ 1.
func EffectiveCollectionSize(total int) int {
	if total < 1 {
		return 1
	}
	return total
}

// Match is one scored document.
type Match struct {
	Doc   postings.DocID
	Score float64
}

// bm25Norm is BM25's length denominator term k1·(1 − b + b·dl/avgdl) with
// dl/avgdl ≈ 1: no document lengths are stored, so it reduces to k1 itself.
const bm25Norm = BM25K1 * (1 - BM25B + BM25B*1)

// A cursor walks one scoring list in ascending document order. The executor
// keeps one per list it scores — a word reached twice, say as a plain term
// and through a truncation, gets two — and a document's score is the sum of
// the contributions of the cursors positioned on it, added in cursor order
// starting from 0. That order is the terms' sorted order: float addition is
// not associative, so a fixed order is what pins every score bit for bit,
// run to run and across flush placements.
type cursor struct {
	ps     []postings.Posting // unread postings; ps[0] is the current one
	weight float64            // the term's query weight
	idf    float64            // from the list's shard-local document frequency
	bm25   bool
	// freq and last memoize the contribution of the frequency scored last,
	// skipping a math.Log per posting. The engine indexes word sets, so its
	// stored frequencies are all 1 and every scored posting repeats its
	// predecessor's; the memo gives the bits recomputing would.
	freq uint32
	last float64
}

// newCursor opens a cursor over a non-empty list under the given model.
// totalDocs must already be clamped by EffectiveCollectionSize.
func newCursor(list *postings.List, weight float64, mode string, totalDocs int) cursor {
	df := list.Len()
	c := cursor{ps: list.Postings(), weight: weight, bm25: mode == ScoringBM25}
	if c.bm25 {
		c.idf = math.Log(1 + (float64(totalDocs)-float64(df)+0.5)/(float64(df)+0.5))
	} else { // ScoringVector
		c.idf = math.Log(1 + float64(totalDocs)/float64(df))
	}
	c.freq = c.ps[0].Freq
	c.last = c.contribution(c.freq)
	return c
}

// score is the cursor's contribution to its current document.
func (c *cursor) score() float64 {
	if f := c.ps[0].Freq; f != c.freq {
		c.freq, c.last = f, c.contribution(f)
	}
	return c.last
}

// contribution is the term's share of a score for a posting of frequency
// freq. The explicit conversion rounds the product before the caller adds
// it, so no platform fuses the multiply into that addition.
func (c *cursor) contribution(freq uint32) float64 {
	tf := float64(freq)
	if c.bm25 {
		return c.weight * c.idf * tf * (BM25K1 + 1) / (tf + bm25Norm)
	}
	tf = 1 + math.Log(tf)
	return float64(c.weight * tf * c.idf)
}

// cursorHeap is a min-heap of open cursors, each keyed by its current
// document in the high 32 bits and its position in cursor order in the low
// 32, so the cursors on one document leave the top in the order their
// contributions must be added, and a comparison is one integer compare. It
// is sifted here rather than through container/heap because it moves once
// per scored posting, where the interface calls dominate the walk.
type cursorHeap []uint64

// cursorKey is the heap key of cursor ord positioned on doc.
func cursorKey(doc postings.DocID, ord int) uint64 { return uint64(doc)<<32 | uint64(ord) }

func (h cursorHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r] < h[l] {
			m = r
		}
		if h[m] >= h[i] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// topK keeps the k best matches offered to it, in compareMatches order, in
// a heap whose root is the worst match kept. compareMatches is a total order
// on distinct documents, so the survivors are exactly the first k of a full
// sort of every offer.
type topK struct {
	k int
	h []Match
}

// newTopK sizes the heap for at most min(k, bound) matches, bound being an
// upper limit on how many documents will be offered.
func newTopK(k, bound int) *topK {
	return &topK{k: k, h: make([]Match, 0, min(k, bound))}
}

func (t *topK) Len() int           { return len(t.h) }
func (t *topK) Less(i, j int) bool { return compareMatches(t.h[i], t.h[j]) > 0 }
func (t *topK) Swap(i, j int)      { t.h[i], t.h[j] = t.h[j], t.h[i] }
func (t *topK) Push(x interface{}) { t.h = append(t.h, x.(Match)) }
func (t *topK) Pop() interface{} {
	n := len(t.h)
	out := t.h[n-1]
	t.h = t.h[:n-1]
	return out
}

func (t *topK) offer(m Match) {
	if len(t.h) < t.k {
		heap.Push(t, m)
	} else if compareMatches(m, t.h[0]) < 0 {
		t.h[0] = m
		heap.Fix(t, 0)
	}
}

// ranked returns the kept matches best first. The result's capacity is its
// length, so a caller holding it pins nothing beyond the k matches.
func (t *topK) ranked() []Match {
	slices.SortFunc(t.h, compareMatches)
	return slices.Clip(t.h)
}
