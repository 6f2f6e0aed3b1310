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
// descending (ties by ascending document). It opens one cursor per scoring
// list — terms in sorted order, a "p*" term's expansions in WordsWithPrefix
// order — and scores document-at-a-time into a size-k heap: no per-query
// score accumulator, no sort of every candidate. With a nil Root (a pure bag
// of words) every document containing a scoring term matches, the paper's
// vector-space evaluation; with a Root, the matching structure selects the
// documents and the cursors rank them — a matched document no scoring term
// touches scores 0.
func ExecuteRanked(pl *Plan, env Exec) ([]Match, error) {
	sp := pl.Score
	if sp == nil {
		return nil, fmt.Errorf("query: plan has no scoring")
	}
	if sp.K <= 0 || len(sp.Terms) == 0 {
		return nil, nil
	}
	curs, bound, err := openCursors(sp, env)
	if err != nil {
		return nil, err
	}
	if pl.Root == nil {
		return rank(curs, sp.K, bound, nil), nil
	}
	matched, err := evalStep(pl.Root, env)
	if err != nil {
		return nil, err
	}
	return rank(curs, sp.K, matched.Len(), matched), nil
}

// openCursors opens the scoring plan's cursors in cursor order, skipping
// empty lists, and returns them with their total posting count — an upper
// bound on the documents they touch.
func openCursors(sp *ScorePlan, env Exec) ([]cursor, int, error) {
	total := EffectiveCollectionSize(env.Total)
	terms := make([]string, 0, len(sp.Terms))
	for term := range sp.Terms {
		terms = append(terms, term)
	}
	slices.Sort(terms)
	curs := make([]cursor, 0, len(terms))
	bound := 0
	for _, term := range terms {
		words := []string{term}
		if p, ok := strings.CutSuffix(term, "*"); ok {
			ps, ok := env.Src.(PrefixSource)
			if !ok {
				return nil, 0, fmt.Errorf("query: source does not support truncation (%s*)", p)
			}
			words = ps.WordsWithPrefix(p)
		}
		for _, w := range words {
			list, err := env.Src.List(w)
			if err != nil {
				return nil, 0, err
			}
			if list.Len() > 0 {
				curs = append(curs, newCursor(list, sp.Terms[term], sp.Mode, total))
				bound += list.Len()
			}
		}
	}
	return curs, bound, nil
}

// rank is the one document walker: it repeatedly takes the lowest current
// document of the cursor heap and sums the contributions of the cursors on
// it in cursor order. With a nil filter every such document is offered to
// the top-k heap; otherwise only the filter's documents are scored and
// offered, one no cursor holds with score 0, and the walk stops once the
// filter is used up. The cursors are consumed.
func rank(curs []cursor, k, bound int, filter *postings.List) []Match {
	h := make(cursorHeap, len(curs))
	for i := range curs {
		h[i] = cursorKey(curs[i].ps[0].Doc, i)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	top := newTopK(k, bound)
	var want []postings.Posting
	if filter != nil {
		want = filter.Postings()
	}
	for len(h) > 0 && (filter == nil || len(want) > 0) {
		d := postings.DocID(h[0] >> 32)
		for ; len(want) > 0 && want[0].Doc < d; want = want[1:] {
			top.offer(Match{Doc: want[0].Doc})
		}
		matched := len(want) > 0 && want[0].Doc == d
		offer := filter == nil || matched
		s := 0.0
		for len(h) > 0 && postings.DocID(h[0]>>32) == d {
			ord := int(uint32(h[0]))
			c := &curs[ord]
			if offer {
				s += c.score()
			}
			if c.ps = c.ps[1:]; len(c.ps) > 0 {
				h[0] = cursorKey(c.ps[0].Doc, ord)
			} else {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			h.down(0)
		}
		if offer {
			top.offer(Match{Doc: d, Score: s})
		}
		if matched {
			want = want[1:]
		}
	}
	for _, p := range want {
		top.offer(Match{Doc: p.Doc})
	}
	return top.ranked()
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
