package query

import (
	"container/heap"
	"math"
	"slices"

	"dualindex/internal/postings"
)

// Ranked retrieval: the paper's vector-space workload, where "a query may be
// derived from a document, consequently the query often contains many words
// (more than 100) and the words tend to be frequently appearing words" — so
// every ranked query reads several long lists. The executor walks those
// lists in place with one cursor each and keeps the best k documents in a
// heap; nothing here grows with the number of scored documents. Once that
// heap is full, MaxScore pruning (Turtle & Flood 1995) skips what cannot
// reach it: each cursor knows the most its list can add to a score, and
// the lists whose bounds sum clearly below the k-th score stop driving the
// walk and are only sought for the documents the others propose. A
// document that is scored at all is scored exactly as without pruning.
//
// A ranked score is the paper's vector-space model with tf·idf weights: a
// document's score is the sum, over the query's positive leaf terms it
// holds, of each term's idf = ln(1 + N/df), df being the term's document
// frequency (shard-local, the standard distributed-retrieval approximation)
// and N the collection size. The index records word sets, so every
// posting's frequency is 1, its tf = 1 + ln 1 is 1, and a term adds its idf
// to every document on its list.

// ScoringVector names the vector-space model in PlanOptions.Scoring.
const ScoringVector = "vector"

// EffectiveCollectionSize clamps a collection size to at least one document
// — the single home of the empty-collection idf guard: ln(1 + N/df) stays
// finite and positive for every df ≥ 1 once N ≥ 1.
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

// A cursor walks one scoring list in ascending document order. The executor
// keeps one per list it scores — a word reached twice, say as a plain term
// and through a truncation, gets two — and a document's score is the sum of
// the idfs of the cursors positioned on it, added in cursor order starting
// from 0. That order is the terms' sorted order: float addition is not
// associative, so a fixed order is what pins every score bit for bit, run
// to run and across flush placements.
type cursor struct {
	docs  []postings.DocID // unread postings; docs[0] is the current one
	score float64          // the list's idf, added to every document on it
}

// newCursor opens a cursor over a non-empty list. totalDocs must already be
// clamped by EffectiveCollectionSize.
func newCursor(list *postings.List, totalDocs int) cursor {
	return cursor{docs: list.Docs(), score: math.Log(1 + float64(totalDocs)/float64(list.Len()))}
}

// bound returns the most the cursor's unread postings add to any score,
// clamped at 0. A used-up cursor adds nothing, and a NaN contribution
// counts as 0: a NaN score never beats θ.
func (c *cursor) bound() float64 {
	if len(c.docs) == 0 || !(c.score > 0) {
		return 0
	}
	return c.score
}

// seek advances the cursor to its first posting at or after doc and
// reports whether that posting is doc's. It gallops from the current
// posting, so a run of seeks costs the gaps between their targets, not
// the list's length.
func (c *cursor) seek(doc postings.DocID) bool {
	docs := c.docs
	if len(docs) > 0 && docs[0] < doc {
		// Gallop until docs[lo] < doc <= docs[hi] (or hi is past the end),
		// then bisect between them.
		lo, step := 0, 1
		for lo+step < len(docs) && docs[lo+step] < doc {
			lo += step
			step *= 2
		}
		hi := min(lo+step, len(docs))
		for hi-lo > 1 {
			if mid := int(uint(lo+hi) >> 1); docs[mid] < doc {
				lo = mid
			} else {
				hi = mid
			}
		}
		docs = docs[hi:]
		c.docs = docs
	}
	return len(docs) > 0 && docs[0] == doc
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

// offer keeps m if it is among the k best offered so far and reports
// whether it did.
func (t *topK) offer(m Match) bool {
	if len(t.h) < t.k {
		heap.Push(t, m)
	} else if compareMatches(m, t.h[0]) < 0 {
		t.h[0] = m
		heap.Fix(t, 0)
	} else {
		return false
	}
	return true
}

// ranked returns the kept matches best first. The result's capacity is its
// length, so a caller holding it pins nothing beyond the k matches.
func (t *topK) ranked() []Match {
	slices.SortFunc(t.h, compareMatches)
	return slices.Clip(t.h)
}

// maxScore is the walker's pruning state (MaxScore, Turtle & Flood 1995).
// It starts once the top-k heap is full, and θ is then the score of the
// worst match kept: a document offered later enters only with a score
// strictly above θ, since the walk offers in ascending document order and
// ties go to the lower document.
//
// ranks orders the cursors for pruning by their idf, clamped at 0. The
// order is drawn only as far as pruning reaches. ranks[:bounded] carry
// running sums of their cursors' bounds, each taken when the cursor is
// drawn; the rest are unordered.
// ranks[:m] are the non-essential cursors: their bounds sum below limit,
// so a document only they hold cannot beat θ. The walk no longer drives
// them but seeks them for the documents the essential cursors propose. θ
// only rises, so m only grows.
//
// A bound adds only positive idfs; every idf is positive, and the clamp
// keeps a NaN out of the sums. With c cursors on a document, its score,
// rounded in any order, is at most 1 + c·2⁻⁵³ times the exact sum of its
// idfs, and a rounded bound at least 1 − c·2⁻⁵³ times its exact sum. limit
// is θ less a relative slack of 1e-9, so for any c below ten million a
// document whose bound falls below limit scores below θ.
type maxScore struct {
	ranks   []boundSum
	bounded int
	m       int
	limit   float64
	// held is the postings the cursors held when pruning started.
	held int
	hits []hit // the current candidate's contributions
	// unread counts the postings the non-essential cursors held when they
	// left the walk, and seeks the seeks made since.
	unread, seeks int
}

// slack is the relative margin a bound must fall below θ by to prune.
const slack = 1e-9

// boundSum is one cursor's place in the pruning order. Past bounded, sum
// is the cursor's key and held is unset.
type boundSum struct {
	ord  int     // cursor order
	sum  float64 // the bounds of ranks up to and including this one, summed
	held int     // the postings those cursors held when their bounds were taken
}

// hit is one cursor's contribution to the current candidate.
type hit struct {
	ord int
	v   float64
}

// raise records θ once top is full and, when that makes more cursors
// non-essential, takes them out of the walk heap h, which it returns.
func (ms *maxScore) raise(curs []cursor, top *topK, h postings.KeyHeap) postings.KeyHeap {
	if len(top.h) < top.k {
		return h
	}
	if ms.ranks == nil {
		ms.start(curs)
	}
	theta := top.h[0].Score
	ms.limit = theta - theta*slack
	m := ms.m
	for ; m < len(ms.ranks); m++ {
		if m == ms.bounded {
			ms.extend(curs)
		}
		if !(ms.ranks[m].sum < ms.limit) {
			break
		}
	}
	// Each document the essential cursors propose may cost seeks, so lists
	// leave the walk only once they held at least half the postings.
	if m == ms.m || 2*ms.ranks[m-1].held < ms.held {
		return h
	}
	for _, r := range ms.ranks[ms.m:m] {
		ms.unread += len(curs[r.ord].docs)
	}
	ms.m = m
	h = h[:0]
	for _, r := range ms.ranks[m:] {
		if c := &curs[r.ord]; len(c.docs) > 0 {
			h = append(h, postings.HeapKey(c.docs[0], r.ord))
		}
	}
	h.Init()
	return h
}

// start keys the cursors for pruning and sizes the scratch.
func (ms *maxScore) start(curs []cursor) {
	ms.ranks = make([]boundSum, len(curs))
	for i := range curs {
		ms.ranks[i] = boundSum{ord: i, sum: max(curs[i].score, 0)}
		ms.held += len(curs[i].docs)
	}
	ms.hits = make([]hit, 0, len(curs))
}

// extend draws the next cursor in pruning order, the lowest key left, and
// takes its bound.
func (ms *maxScore) extend(curs []cursor) {
	rest := ms.ranks[ms.bounded:]
	low := 0
	for i, r := range rest {
		if r.sum < rest[low].sum || r.sum == rest[low].sum && r.ord < rest[low].ord {
			low = i
		}
	}
	rest[0], rest[low] = rest[low], rest[0]
	c := &curs[rest[0].ord]
	rest[0].sum, rest[0].held = c.bound(), len(c.docs)
	if ms.bounded > 0 {
		prev := ms.ranks[ms.bounded-1]
		rest[0].sum += prev.sum
		rest[0].held += prev.held
	}
	ms.bounded++
}

// complete decides candidate doc while some cursors are non-essential.
// hits holds what the essential cursors on doc add, in cursor order, and e
// is their sum. It seeks the non-essential cursors to doc, the last drawn
// first, and drops doc as soon as its bound falls below limit. Otherwise
// it returns doc's exact score: every hit added in cursor order from 0,
// as the walk adds them when nothing is pruned. The bound counts only
// positive idfs, as the cursors' bounds do.
func (ms *maxScore) complete(curs []cursor, doc postings.DocID, e float64, hits []hit) (float64, bool) {
	bound := 0.0
	for _, h := range hits {
		if h.v > 0 {
			bound += h.v
		}
	}
	essential := len(hits)
	for j := ms.m - 1; j >= 0; j-- {
		if bound+ms.ranks[j].sum < ms.limit {
			return 0, false
		}
		ms.seeks++
		if c := &curs[ms.ranks[j].ord]; c.seek(doc) {
			v := c.score
			if v > 0 {
				bound += v
			}
			hits = append(hits, hit{ms.ranks[j].ord, v})
		}
	}
	if bound < ms.limit {
		return 0, false
	}
	if len(hits) == essential {
		return e, true
	}
	for i := essential; i < len(hits); i++ {
		for j := i; j > 0 && hits[j-1].ord > hits[j].ord; j-- {
			hits[j-1], hits[j] = hits[j], hits[j-1]
		}
	}
	s := 0.0
	for _, h := range hits {
		s += h.v
	}
	return s, true
}
