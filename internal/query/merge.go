package query

import "container/heap"

// The fan-out/merge half of ranked query evaluation: each shard answers
// over its own partition of the documents, and the engine combines the
// per-shard top-k lists here. Shards partition documents, so the merged
// inputs are disjoint; the merge still tolerates (and drops) duplicates so
// it is safe on arbitrary inputs. The document lists of match-only plans
// merge through postings.UnionAll.

// compareMatches is the vector-result order: score descending, ties broken
// by ascending document id.
func compareMatches(a, b Match) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	case a.Doc < b.Doc:
		return -1
	case a.Doc > b.Doc:
		return 1
	}
	return 0
}

func matchBefore(a, b Match) bool { return compareMatches(a, b) < 0 }

// matchCursor is one partially-consumed sorted match list.
type matchCursor struct {
	matches []Match
	pos     int
}

type matchHeap []matchCursor

func (h matchHeap) Len() int { return len(h) }
func (h matchHeap) Less(i, j int) bool {
	return matchBefore(h[i].matches[h[i].pos], h[j].matches[h[j].pos])
}
func (h matchHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *matchHeap) Push(x interface{}) { *h = append(*h, x.(matchCursor)) }
func (h *matchHeap) Pop() interface{} {
	old := *h
	n := len(old)
	out := old[n-1]
	*h = old[:n-1]
	return out
}

// MergeMatches merges per-shard top-k match lists — each sorted by score
// descending, ties by ascending document — into the global top k in the
// same order. A single input group is truncated and returned as is.
func MergeMatches(groups [][]Match, k int) []Match {
	if k <= 0 {
		return nil
	}
	h := make(matchHeap, 0, len(groups))
	var last []Match
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		h = append(h, matchCursor{matches: g})
		last = g
	}
	switch len(h) {
	case 0:
		return nil
	case 1:
		if len(last) > k {
			last = last[:k:k]
		}
		return last
	}
	heap.Init(&h)
	out := make([]Match, 0, k)
	for len(h) > 0 && len(out) < k {
		cur := &h[0]
		m := cur.matches[cur.pos]
		if n := len(out); n == 0 || out[n-1].Doc != m.Doc || out[n-1].Score != m.Score {
			out = append(out, m)
		}
		cur.pos++
		if cur.pos == len(cur.matches) {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return out
}
