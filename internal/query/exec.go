package query

import (
	"fmt"
	"slices"
	"strings"

	"dualindex/internal/lexer"
	"dualindex/internal/postings"
)

// The executor: runs a Plan against one Source. The engine executes the same
// plan on every shard concurrently; everything here is read-only on the plan,
// so one plan value is shared across the fan-out.

// VerifyFunc checks candidate documents against their stored positional
// tokens: it returns, in ascending order, the candidates whose token
// sequence satisfies match. The shard's implementation reads its document
// store; tests substitute a fake.
type VerifyFunc func(candidates []postings.DocID, match func([]lexer.Token) bool) ([]postings.DocID, error)

// Exec is the per-shard execution environment of a plan.
type Exec struct {
	// Src supplies inverted lists (and vocabulary expansion when it is a
	// PrefixSource).
	Src Source
	// Total is the engine-wide collection size for idf; values below 1 are
	// clamped by EffectiveCollectionSize.
	Total int
	// Verify resolves VerifyStep's document-text half; nil rejects plans
	// that need it.
	Verify VerifyFunc
}

// ExecuteMatch runs a match-only plan and returns the matching documents in
// ascending order.
func ExecuteMatch(pl *Plan, env Exec) (*postings.List, error) {
	if pl.Root == nil {
		return nil, fmt.Errorf("query: plan has no matching structure")
	}
	return evalStep(pl.Root, env)
}

// ExecuteRanked runs a ranked plan and returns the top-k matches, score
// descending (ties by ascending document). With a nil Root (a pure bag of
// words) every document containing a scoring term matches — byte-for-byte
// EvalVector's behaviour under the vector model; with a Root, the matching
// structure selects the documents and the scoring terms rank them.
func ExecuteRanked(pl *Plan, env Exec) ([]Match, error) {
	sp := pl.Score
	if sp == nil {
		return nil, fmt.Errorf("query: plan has no scoring")
	}
	if sp.K <= 0 || len(sp.Terms) == 0 {
		return nil, nil
	}
	total := EffectiveCollectionSize(env.Total)
	scores := map[postings.DocID]float64{}
	// Deterministic term order: float accumulation is not associative, so
	// ranging the Terms map directly would let the same query score the same
	// document differently from run to run (and across flush placements) in
	// the last ulp. Sorted order pins scores bit-for-bit.
	terms := make([]string, 0, len(sp.Terms))
	for term := range sp.Terms {
		terms = append(terms, term)
	}
	slices.Sort(terms)
	for _, term := range terms {
		weight := sp.Terms[term]
		if p, ok := strings.CutSuffix(term, "*"); ok {
			ps, ok := env.Src.(PrefixSource)
			if !ok {
				return nil, fmt.Errorf("query: source does not support truncation (%s*)", p)
			}
			for _, w := range ps.WordsWithPrefix(p) {
				list, err := env.Src.List(w)
				if err != nil {
					return nil, err
				}
				scoreList(scores, list, weight, sp.Mode, total)
			}
			continue
		}
		list, err := env.Src.List(term)
		if err != nil {
			return nil, err
		}
		scoreList(scores, list, weight, sp.Mode, total)
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

// evalStep evaluates one step to a sorted document list.
func evalStep(st Step, env Exec) (*postings.List, error) {
	switch st := st.(type) {
	case FetchStep:
		l, err := env.Src.List(st.Word)
		if err != nil {
			return nil, err
		}
		if l == nil {
			l = &postings.List{}
		}
		return l, nil
	case PrefixStep:
		ps, ok := env.Src.(PrefixSource)
		if !ok {
			return nil, fmt.Errorf("query: source does not support truncation (%s*)", st.Prefix)
		}
		words := ps.WordsWithPrefix(st.Prefix)
		lists := make([]*postings.List, 0, len(words))
		for _, w := range words {
			l, err := env.Src.List(w)
			if err != nil {
				return nil, err
			}
			lists = append(lists, l)
		}
		// A truncation can expand to hundreds of words; merge them all in
		// one k-way heap pass.
		return postings.UnionAll(lists), nil
	case IntersectStep:
		l, r, err := evalPair(st.L, st.R, env)
		if err != nil {
			return nil, err
		}
		return postings.Intersect(l, r), nil
	case UnionStep:
		l, r, err := evalPair(st.L, st.R, env)
		if err != nil {
			return nil, err
		}
		return postings.Union(l, r), nil
	case DiffStep:
		l, r, err := evalPair(st.L, st.R, env)
		if err != nil {
			return nil, err
		}
		return postings.Difference(l, r), nil
	case VerifyStep:
		return evalVerify(st, env)
	}
	return nil, fmt.Errorf("query: unknown step %T", st)
}

func evalPair(l, r Step, env Exec) (*postings.List, *postings.List, error) {
	ll, err := evalStep(l, env)
	if err != nil {
		return nil, nil, err
	}
	rl, err := evalStep(r, env)
	if err != nil {
		return nil, nil, err
	}
	return ll, rl, nil
}

// evalVerify is candidate verification: intersect the prune words' lists —
// fetched serially, on purpose, so an empty intersection stops before
// reading further lists — then check survivors' stored text.
func evalVerify(st VerifyStep, env Exec) (*postings.List, error) {
	var candidates *postings.List
	for _, w := range st.Prune {
		l, err := env.Src.List(w)
		if err != nil {
			return nil, err
		}
		if candidates == nil {
			candidates = l
		} else {
			candidates = postings.Intersect(candidates, l)
		}
		if candidates.Len() == 0 {
			return &postings.List{}, nil
		}
	}
	if env.Verify == nil {
		return nil, fmt.Errorf("query: positional conditions need stored documents")
	}
	docs, err := env.Verify(candidates.Docs(), st.Check.Match)
	if err != nil {
		return nil, err
	}
	return postings.FromDocs(docs), nil
}
