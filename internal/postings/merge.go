package postings

// UnionAll merges any number of lists with a k-way heap merge: O(N log k)
// instead of the O(N·k) of folding pairwise unions. It is the evaluation
// path of truncation queries, whose prefix can expand to hundreds of
// vocabulary words, of the tier merge, and of the cross-shard merge of
// match answers. A document in several lists is one posting. When only one
// list is non-empty it is returned as is, not copied.
func UnionAll(lists []*List) *List {
	var a, b *List // the first two non-empty lists
	k, total := 0, 0
	for _, l := range lists {
		if l.Len() > 0 {
			if k++; a == nil {
				a = l
			} else if b == nil {
				b = l
			}
			total += l.Len()
		}
	}
	switch k {
	case 0:
		return &List{}
	case 1:
		return a
	case 2:
		return Union(a, b)
	}
	// Each non-empty list is one cursor, its ordinal its index in lists.
	h := make(KeyHeap, 0, k)
	for i, l := range lists {
		if l.Len() > 0 {
			h = append(h, HeapKey(l.docs[0], i))
		}
	}
	h.Init()
	pos := make([]int, len(lists))
	out := make([]DocID, 0, total)
	for len(h) > 0 {
		d, i := DocID(h[0]>>32), uint32(h[0])
		if n := len(out); n == 0 || out[n-1] != d {
			out = append(out, d)
		}
		pos[i]++
		if docs := lists[i].docs; pos[i] < len(docs) {
			h[0] = HeapKey(docs[pos[i]], int(i))
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.Down(0)
	}
	return &List{docs: out}
}

// KeyHeap is a binary min-heap of cursors over sorted document lists, the
// one behind UnionAll and the ranked walker. Each key packs a cursor's
// current document in the high 32 bits and the cursor's ordinal in the low
// 32, so the cursors on one document leave the top in ordinal order and a
// comparison is one integer compare. It is sifted here rather than through
// container/heap because it moves once per posting, where the interface
// calls dominate.
type KeyHeap []uint64

// HeapKey is the key of cursor ord positioned on doc.
func HeapKey(doc DocID, ord int) uint64 { return uint64(doc)<<32 | uint64(ord) }

// Init orders an arbitrary h into a heap.
func (h KeyHeap) Init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.Down(i)
	}
}

// Down moves the key at i down to its place, after it grew.
func (h KeyHeap) Down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r] < h[l] {
			m = r
		}
		if h[m] >= h[i] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
