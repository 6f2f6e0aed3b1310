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

// EvalVector scores documents against the distinct words of a query
// document with tf·idf and returns the top k matches, highest score first
// (ties broken by ascending document id). Only documents containing at
// least one query word are scored.
func EvalVector(words []string, src Source, totalDocs int, k int) ([]Match, error) {
	terms := slices.Clone(words)
	slices.Sort(terms)
	return referenceRanked(&Plan{Score: &ScorePlan{Terms: slices.Compact(terms), K: k}},
		Exec{Src: src, Total: totalDocs})
}

// referenceRanked is ExecuteRanked term-at-a-time: every scoring list folds
// into one map accumulator, terms in plan order (sorted, so scores are exact
// for a bag of any size), and every candidate is sorted to keep k.
func referenceRanked(pl *Plan, env Exec) ([]Match, error) {
	sp := pl.Score
	if sp.K <= 0 || len(sp.Terms) == 0 {
		return nil, nil
	}
	total := EffectiveCollectionSize(env.Total)
	scores := map[postings.DocID]float64{}
	for _, term := range sp.Terms {
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
			scoreList(scores, list, total)
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

// scoreList folds one term's inverted list into the score accumulator: each
// document on it gains the term's idf, ln(1 + N/df) (the index records word
// sets, so tf is 1). totalDocs must already be clamped by
// EffectiveCollectionSize.
func scoreList(scores map[postings.DocID]float64, list *postings.List, totalDocs int) {
	if list.Len() == 0 {
		return
	}
	idf := math.Log(1 + float64(totalDocs)/float64(list.Len()))
	for _, d := range list.Docs() {
		scores[d] += idf
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
