package query

import (
	"dualindex/internal/postings"
)

// VectorQuery is a weighted bag of words — the paper's vector-space model
// workload, where "a query may be derived from a document, consequently the
// query often contains many words (more than 100) and the words tend to be
// frequently appearing words".
type VectorQuery struct {
	Terms map[string]float64 // word → query weight
}

// FromDocument builds a vector query from document text tokens: each
// distinct word gets weight 1 (abstracts-style indexes drop duplicate
// tokens, so term frequency within the query document is 1).
func FromDocument(words []string) VectorQuery {
	q := VectorQuery{Terms: make(map[string]float64, len(words))}
	for _, w := range words {
		q.Terms[w] = 1
	}
	return q
}

// Match is one scored document.
type Match struct {
	Doc   postings.DocID
	Score float64
}

// EvalVector scores documents against q with tf·idf and returns the top k
// matches, highest score first (ties broken by ascending document id).
// totalDocs is the collection size for the idf computation (values below 1
// are clamped by EffectiveCollectionSize). Inverted lists are used to
// prune: only documents containing at least one query word are scored,
// exactly how the paper describes vector systems using inverted lists.
//
// The planner's ranked-bag lowering (NewRankedBag) executes this same
// scoring, so a bag-of-words plan and EvalVector agree term for term — the
// reference the planner's property tests compare against.
func EvalVector(q VectorQuery, src Source, totalDocs int, k int) ([]Match, error) {
	if k <= 0 || len(q.Terms) == 0 {
		return nil, nil
	}
	total := EffectiveCollectionSize(totalDocs)
	scores := map[postings.DocID]float64{}
	for word, weight := range q.Terms {
		list, err := src.List(word)
		if err != nil {
			return nil, err
		}
		scoreList(scores, list, weight, ScoringVector, total)
	}
	return rankMatches(scores, k), nil
}
