package query

import (
	"fmt"
	"strings"

	"dualindex/internal/postings"
)

// The executor: runs a Plan against one Source. The engine executes the same
// plan on every shard concurrently; everything here is read-only on the plan,
// so one plan value is shared across the fan-out. Ranked plans go through one
// document walker, rank, which prunes what cannot reach the top k (MaxScore)
// and returns exactly what a walk of every posting would.

// Source supplies the inverted list for a word. Lists must be sorted by
// document identifier; a word with no list returns an empty list.
type Source interface {
	List(word string) (*postings.List, error)
}

// A PrefixSource additionally enumerates the vocabulary by prefix, enabling
// truncation queries ("inver*"). Sources without this capability reject
// prefix queries at evaluation time.
type PrefixSource interface {
	Source
	WordsWithPrefix(prefix string) []string
}

// VerifyFunc checks candidate documents against a positional condition: it
// returns, in ascending order, the candidates whose stored text satisfies
// check (Check.MatchText). The shard's implementation reads its document
// store; tests substitute a fake.
type VerifyFunc func(candidates []postings.DocID, check Check) ([]postings.DocID, error)

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
// score accumulator, no sort of every candidate; once the heap is full,
// documents that cannot enter it are skipped. With a nil Root (a pure bag
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
		top, _ := rank(curs, sp.K, bound, nil)
		return top, nil
	}
	matched, err := evalStep(pl.Root, env)
	if err != nil {
		return nil, err
	}
	top, _ := rank(curs, sp.K, matched.Len(), matched)
	return top, nil
}

// openCursors opens the scoring plan's cursors in cursor order, skipping
// empty lists, and returns them with their total posting count — an upper
// bound on the documents they touch.
func openCursors(sp *ScorePlan, env Exec) ([]cursor, int, error) {
	total := EffectiveCollectionSize(env.Total)
	curs := make([]cursor, 0, len(sp.Terms))
	bound := 0
	for _, term := range sp.Terms {
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
				curs = append(curs, newCursor(list, total))
				bound += list.Len()
			}
		}
	}
	return curs, bound, nil
}

// rank is the one document walker: it repeatedly takes the lowest current
// document of the cursor heap and sums the idfs of the cursors on it in
// cursor order. With a nil filter every such document is offered to
// the top-k heap; otherwise only the filter's documents are scored and
// offered, one no cursor holds with score 0, and the walk stops once the
// filter is used up. Once the top-k heap is full, MaxScore pruning
// (maxScore) moves the cursors whose bounds cannot lift a document past
// the k-th score out of the heap, and a document the rest propose is
// offered only if its bound could beat that score; the survivors are
// scored exactly as without pruning. With a filter, the documents no
// essential cursor holds are still offered with score 0: pruning starts
// only at a k-th score above 0, which turns them away as their exact
// scores would be. The cursors are consumed. visited counts the postings
// the walk popped off its heap or sought.
func rank(curs []cursor, k, bound int, filter *postings.List) (ranked []Match, visited int) {
	// The walk heap keys each cursor by its position in cursor order, so
	// the cursors on one document leave it in the order their
	// contributions must be added.
	h := make(postings.KeyHeap, len(curs))
	for i := range curs {
		h[i] = postings.HeapKey(curs[i].docs[0], i)
		visited += len(curs[i].docs)
	}
	h.Init()
	top := newTopK(k, bound)
	var ms maxScore
	want := filter.Docs()
	for len(h) > 0 && (filter == nil || len(want) > 0) {
		d := postings.DocID(h[0] >> 32)
		for ; len(want) > 0 && want[0] < d; want = want[1:] {
			top.offer(Match{Doc: want[0]})
		}
		matched := len(want) > 0 && want[0] == d
		offer := filter == nil || matched
		s, hits := 0.0, ms.hits[:0]
		for len(h) > 0 && postings.DocID(h[0]>>32) == d {
			ord := int(uint32(h[0]))
			c := &curs[ord]
			if offer {
				s += c.score
				if ms.m > 0 {
					hits = append(hits, hit{ord, c.score})
				}
			}
			if c.docs = c.docs[1:]; len(c.docs) > 0 {
				h[0] = postings.HeapKey(c.docs[0], ord)
			} else {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			h.Down(0)
		}
		if offer && ms.m > 0 {
			s, offer = ms.complete(curs, d, s, hits)
		}
		if offer && top.offer(Match{Doc: d, Score: s}) {
			h = ms.raise(curs, top, h)
		}
		if matched {
			want = want[1:]
		}
	}
	for _, d := range want {
		top.offer(Match{Doc: d})
	}
	// visited began as every posting: take off those never popped.
	visited -= ms.unread
	for _, key := range h {
		visited -= len(curs[uint32(key)].docs)
	}
	return top.ranked(), visited + ms.seeks
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
	docs, err := env.Verify(candidates.Docs(), st.Check)
	if err != nil {
		return nil, err
	}
	return postings.FromDocs(docs), nil
}
