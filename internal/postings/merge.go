package postings

import (
	"container/heap"
)

// Iterator walks a posting list in ascending document order. It is the
// streaming interface list merges are written against.
type Iterator struct {
	l *List
	i int
}

// Iter returns an iterator positioned before the first posting.
func (l *List) Iter() *Iterator { return &Iterator{l: l} }

// Next advances and reports whether a posting is available.
func (it *Iterator) Next() bool {
	if it.i >= it.l.Len() {
		return false
	}
	it.i++
	return true
}

// Posting returns the current posting. Valid only after a true Next.
func (it *Iterator) Posting() Posting { return it.l.ps[it.i-1] }

// mergeHeap orders iterators by their current document.
type mergeHeap []*Iterator

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return h[i].Posting().Doc < h[j].Posting().Doc }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(*Iterator)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// UnionAll merges any number of lists with a k-way heap merge: O(N log k)
// instead of the O(N·k) of folding pairwise unions. It is the evaluation
// path of truncation queries, whose prefix can expand to hundreds of
// vocabulary words. Frequencies of shared documents are summed.
func UnionAll(lists []*List) *List {
	switch len(lists) {
	case 0:
		return &List{}
	case 1:
		return lists[0].Clone()
	case 2:
		return Union(lists[0], lists[1])
	}
	h := make(mergeHeap, 0, len(lists))
	total := 0
	for _, l := range lists {
		total += l.Len()
		it := l.Iter()
		if it.Next() {
			h = append(h, it)
		}
	}
	heap.Init(&h)
	out := &List{ps: make([]Posting, 0, total)}
	for h.Len() > 0 {
		it := h[0]
		p := it.Posting()
		if n := len(out.ps); n > 0 && out.ps[n-1].Doc == p.Doc {
			out.ps[n-1].Freq += p.Freq
		} else {
			out.ps = append(out.ps, p)
		}
		if it.Next() {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}
