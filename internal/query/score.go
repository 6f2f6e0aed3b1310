package query

import (
	"fmt"
	"math"
	"slices"

	"dualindex/internal/postings"
)

// Ranked-retrieval scoring models. Both score a document by summing, over
// the query's positive leaf terms, a per-term contribution built from the
// term's document frequency (shard-local, the standard distributed-retrieval
// approximation) and the posting's within-document frequency; they differ
// only in the idf and tf shaping, so either model runs from the same plan.
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

// scoreList folds one term's inverted list into the score accumulator under
// the given model. totalDocs must already be clamped by
// EffectiveCollectionSize.
func scoreList(scores map[postings.DocID]float64, list *postings.List, weight float64, mode string, totalDocs int) {
	df := list.Len()
	if df == 0 {
		return
	}
	switch mode {
	case ScoringBM25:
		idf := math.Log(1 + (float64(totalDocs)-float64(df)+0.5)/(float64(df)+0.5))
		// dl/avgdl ≈ 1 (no stored document lengths): the length term of the
		// denominator reduces to k1 itself.
		norm := BM25K1 * (1 - BM25B + BM25B*1)
		for _, p := range list.Postings() {
			tf := float64(p.Freq)
			scores[p.Doc] += weight * idf * tf * (BM25K1 + 1) / (tf + norm)
		}
	default: // ScoringVector
		idf := math.Log(1 + float64(totalDocs)/float64(df))
		for _, p := range list.Postings() {
			tf := 1 + math.Log(float64(p.Freq))
			scores[p.Doc] += weight * tf * idf
		}
	}
}

// rankMatches orders a score map into the top-k match list.
func rankMatches(scores map[postings.DocID]float64, k int) []Match {
	out := make([]Match, 0, len(scores))
	for d, s := range scores {
		out = append(out, Match{Doc: d, Score: s})
	}
	return topMatches(out, k)
}

// topMatches sorts candidates — score descending, ties broken by ascending
// document id — and returns the first k. The result's capacity is its
// length: when candidates are dropped the survivors are copied out, so a
// caller holding k matches does not keep every scored document alive.
func topMatches(candidates []Match, k int) []Match {
	slices.SortFunc(candidates, compareMatches)
	if len(candidates) <= k {
		return candidates[:len(candidates):len(candidates)]
	}
	top := make([]Match, k)
	copy(top, candidates)
	return top
}
