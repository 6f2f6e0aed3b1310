package query

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"dualindex/internal/postings"
)

// The reference evaluators: direct, unoptimized evaluations of the boolean
// algebra and of ranked scoring that the planner and executor are checked
// against. They materialize what the executor streams — whole result lists
// per sub-expression, a map from document to score, a full sort of every
// candidate — so they are easy to trust and slow on purpose.

// result carries an evaluated sub-expression: a list, possibly under
// negation (the complement of the list).
type result struct {
	list    *postings.List
	negated bool
}

// EvalBoolean evaluates a parsed expression against src and returns the
// matching documents in ascending order. Negation is supported only where
// it can be resolved by list difference; a query whose overall answer is a
// complement ("not cat", "not cat or not dog") returns an error — the same
// condition NewPlan reports at plan time.
func EvalBoolean(e Expr, src Source) (*postings.List, error) {
	res, err := eval(e, src)
	if err != nil {
		return nil, err
	}
	if res.negated {
		return nil, errComplement
	}
	return res.list, nil
}

func eval(e Expr, src Source) (result, error) {
	switch e := e.(type) {
	case Word:
		l, err := src.List(e.W)
		if err != nil {
			return result{}, err
		}
		if l == nil {
			l = &postings.List{}
		}
		return result{list: l}, nil
	case Prefix:
		ps, ok := src.(PrefixSource)
		if !ok {
			return result{}, fmt.Errorf("query: source does not support truncation (%s*)", e.P)
		}
		words := ps.WordsWithPrefix(e.P)
		lists := make([]*postings.List, 0, len(words))
		for _, w := range words {
			l, err := src.List(w)
			if err != nil {
				return result{}, err
			}
			lists = append(lists, l)
		}
		return result{list: postings.UnionAll(lists)}, nil
	case Not:
		r, err := eval(e.E, src)
		if err != nil {
			return result{}, err
		}
		r.negated = !r.negated
		return r, nil
	case And:
		l, err := eval(e.L, src)
		if err != nil {
			return result{}, err
		}
		r, err := eval(e.R, src)
		if err != nil {
			return result{}, err
		}
		switch {
		case !l.negated && !r.negated:
			return result{list: postings.Intersect(l.list, r.list)}, nil
		case !l.negated && r.negated:
			return result{list: postings.Difference(l.list, r.list)}, nil
		case l.negated && !r.negated:
			return result{list: postings.Difference(r.list, l.list)}, nil
		default: // ¬a ∧ ¬b = ¬(a ∪ b)
			return result{list: postings.Union(l.list, r.list), negated: true}, nil
		}
	case Or:
		l, err := eval(e.L, src)
		if err != nil {
			return result{}, err
		}
		r, err := eval(e.R, src)
		if err != nil {
			return result{}, err
		}
		switch {
		case !l.negated && !r.negated:
			return result{list: postings.Union(l.list, r.list)}, nil
		case !l.negated && r.negated: // a ∨ ¬b = ¬(b − a)
			return result{list: postings.Difference(r.list, l.list), negated: true}, nil
		case l.negated && !r.negated:
			return result{list: postings.Difference(l.list, r.list), negated: true}, nil
		default: // ¬a ∨ ¬b = ¬(a ∩ b)
			return result{list: postings.Intersect(l.list, r.list), negated: true}, nil
		}
	}
	return result{}, fmt.Errorf("query: unknown expression %T", e)
}

// VectorQuery is a weighted bag of words.
type VectorQuery struct {
	Terms map[string]float64 // word → query weight
}

// FromDocument builds a vector query from document text tokens: each
// distinct word gets weight 1.
func FromDocument(words []string) VectorQuery {
	q := VectorQuery{Terms: make(map[string]float64, len(words))}
	for _, w := range words {
		q.Terms[w] = 1
	}
	return q
}

// EvalVector scores documents against q with tf·idf and returns the top k
// matches, highest score first (ties broken by ascending document id).
// Only documents containing at least one query word are scored.
func EvalVector(q VectorQuery, src Source, totalDocs int, k int) ([]Match, error) {
	return referenceRanked(&Plan{Score: &ScorePlan{Mode: ScoringVector, Terms: q.Terms, K: k}},
		Exec{Src: src, Total: totalDocs})
}

// referenceRanked is ExecuteRanked term-at-a-time: every scoring list folds
// into one map accumulator, terms in sorted order (so scores are exact for a
// bag of any size), and every candidate is sorted to keep k.
func referenceRanked(pl *Plan, env Exec) ([]Match, error) {
	sp := pl.Score
	if sp.K <= 0 || len(sp.Terms) == 0 {
		return nil, nil
	}
	total := EffectiveCollectionSize(env.Total)
	scores := map[postings.DocID]float64{}
	terms := make([]string, 0, len(sp.Terms))
	for term := range sp.Terms {
		terms = append(terms, term)
	}
	slices.Sort(terms)
	for _, term := range terms {
		words := []string{term}
		if p, ok := strings.CutSuffix(term, "*"); ok {
			ps, ok := env.Src.(PrefixSource)
			if !ok {
				return nil, fmt.Errorf("query: source does not support truncation (%s*)", p)
			}
			words = ps.WordsWithPrefix(p)
		}
		for _, w := range words {
			list, err := env.Src.List(w)
			if err != nil {
				return nil, err
			}
			scoreList(scores, list, sp.Terms[term], sp.Mode, total)
		}
	}
	if pl.Root == nil {
		return rankMatches(scores, sp.K), nil
	}
	matched, err := evalStep(pl.Root, env)
	if err != nil {
		return nil, err
	}
	out := make([]Match, 0, matched.Len())
	for _, d := range matched.Docs() {
		out = append(out, Match{Doc: d, Score: scores[d]})
	}
	return topMatches(out, sp.K), nil
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
		norm := BM25K1 * (1 - BM25B + BM25B*1)
		for _, p := range list.Postings() {
			tf := float64(p.Freq)
			scores[p.Doc] += weight * idf * tf * (BM25K1 + 1) / (tf + norm)
		}
	default: // ScoringVector
		idf := math.Log(1 + float64(totalDocs)/float64(df))
		for _, p := range list.Postings() {
			tf := 1 + math.Log(float64(p.Freq))
			scores[p.Doc] += float64(weight * tf * idf)
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
// document id — and returns the first k, with capacity equal to length.
func topMatches(candidates []Match, k int) []Match {
	slices.SortFunc(candidates, compareMatches)
	if len(candidates) <= k {
		return candidates[:len(candidates):len(candidates)]
	}
	top := make([]Match, k)
	copy(top, candidates)
	return top
}
