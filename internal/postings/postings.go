// Package postings implements posting lists for inverted indexes.
//
// A posting records that a word occurs in a document; a list is the sorted
// identifiers of the documents holding its word. The index records word
// sets, as the paper does ("duplicate tokens for a document are dropped"),
// so a posting is a document identifier and nothing more. Lists are kept
// sorted so that boolean queries can be answered by linear merges, exactly
// as the paper assumes ("the document identifiers appear in sorted order in
// inverted lists" and "all long lists are updated by appending new
// postings").
//
// The package also provides compact on-disk encodings (delta + varint, and
// Golomb) whose compression ratio is what the paper models implicitly
// through the BlockPosting parameter. Every on-disk format still carries a
// frequency field, always 1, for each posting; the decoders refuse any
// other value.
package postings

import (
	"errors"
	"fmt"
	"slices"
)

// DocID identifies a document. New documents receive strictly increasing
// identifiers, which is what makes append-only long-list maintenance sound.
type DocID uint32

// WordID identifies a word across the whole index, mirroring the paper's
// conversion of words to unique integers before the bucket computation.
type WordID uint32

// List is a posting list: the identifiers of the documents holding a word,
// in ascending order. The zero value is an empty, ready-to-use list.
type List struct {
	docs []DocID
}

// NewList returns a list holding docs, which it keeps. The identifiers
// must be strictly ascending; NewList panics otherwise so that corrupted
// lists are caught at construction time.
func NewList(docs []DocID) *List {
	for i := 1; i < len(docs); i++ {
		if docs[i] <= docs[i-1] {
			panic(fmt.Sprintf("postings: out of order at %d: %d <= %d", i, docs[i], docs[i-1]))
		}
	}
	return &List{docs: docs}
}

// FromDocs builds a list from document identifiers, which may be unsorted
// and may repeat; a repeated identifier is one posting.
func FromDocs(docs []DocID) *List {
	sorted := slices.Clone(docs)
	slices.Sort(sorted)
	return &List{docs: slices.Compact(sorted)}
}

// Len reports the number of postings in the list.
func (l *List) Len() int {
	if l == nil {
		return 0
	}
	return len(l.docs)
}

// Docs returns the document identifiers in the list, in ascending order.
// The slice is the list's own storage: callers must not mutate it, and
// copy it to keep it past a change to the list.
func (l *List) Docs() []DocID {
	if l == nil {
		return nil
	}
	return l.docs
}

// Clone returns a deep copy of the list.
func (l *List) Clone() *List {
	return &List{docs: slices.Clone(l.Docs())}
}

// MaxDoc returns the largest document identifier in the list, or 0 for an
// empty list. Because lists are sorted this is the last posting.
func (l *List) MaxDoc() DocID {
	if l.Len() == 0 {
		return 0
	}
	return l.docs[len(l.docs)-1]
}

// ErrAppendOrder is returned when an append would violate the ascending
// document-identifier invariant.
var ErrAppendOrder = errors.New("postings: appended postings must have larger doc IDs")

// Append appends the postings of m to l in place. Every document identifier
// in m must exceed l.MaxDoc(); this mirrors the paper's assumption that new
// documents are numbered in increasing order so long lists only grow at the
// tail.
func (l *List) Append(m *List) error {
	if m.Len() == 0 {
		return nil
	}
	if l.Len() > 0 && m.docs[0] <= l.MaxDoc() {
		return fmt.Errorf("%w: have max %d, got %d", ErrAppendOrder, l.MaxDoc(), m.docs[0])
	}
	l.docs = append(l.docs, m.docs...)
	return nil
}

// Push appends one posting in place: doc must exceed MaxDoc() unless the
// list is empty. Push is how the pending tier grows a per-word run
// incrementally — one posting per arriving document — where Append moves
// whole already-built lists. It panics on a document that does not ascend,
// like NewList, so a corrupted run is caught at construction.
func (l *List) Push(doc DocID) {
	if n := len(l.docs); n > 0 && l.docs[n-1] >= doc {
		panic(fmt.Sprintf("postings: push out of order: have max %d, got %d", l.docs[n-1], doc))
	}
	l.docs = append(l.docs, doc)
}

// Intersect returns the postings present in both lists, using a linear
// merge.
func Intersect(a, b *List) *List {
	out := &List{}
	x, y := a.Docs(), b.Docs()
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			out.docs = append(out.docs, x[i])
			i++
			j++
		}
	}
	return out
}

// Union returns the postings present in either list, a document in both
// once, using a linear merge.
func Union(a, b *List) *List {
	x, y := a.Docs(), b.Docs()
	out := make([]DocID, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			out = append(out, x[i])
			i++
		case x[i] > y[j]:
			out = append(out, y[j])
			j++
		default:
			out = append(out, x[i])
			i++
			j++
		}
	}
	out = append(out, x[i:]...)
	return &List{docs: append(out, y[j:]...)}
}

// Difference returns the postings of a whose documents do not appear in b.
func Difference(a, b *List) *List {
	out := &List{}
	x, y := a.Docs(), b.Docs()
	j := 0
	for _, d := range x {
		for j < len(y) && y[j] < d {
			j++
		}
		if j < len(y) && y[j] == d {
			continue
		}
		out.docs = append(out.docs, d)
	}
	return out
}

// Without returns l minus the postings of the documents in del, a sorted
// deleted-document list, and how many postings it dropped. It implements
// the paper's deletion scheme of filtering query answers through "a list of
// deleted document identifiers" as one merge pass over both sorted lists.
// Binary searches first clip del to l's identifier range and skip the
// postings below its first identifier. When nothing is dropped it returns l
// itself and allocates nothing; otherwise the result is a new list whose
// storage is sized once.
func (l *List) Without(del []DocID) (*List, int) {
	i, del, j, hit := l.firstHit(del)
	if !hit {
		return l, 0
	}
	out := dropHits(make([]DocID, 0, len(l.docs)-1), l.docs, del, i, j)
	return &List{docs: out}, l.Len() - len(out)
}

// Drop is Without in place, for a list no one else holds: it removes the
// postings of the documents in del from l, reports how many it removed,
// and allocates nothing.
func (l *List) Drop(del []DocID) int {
	i, del, j, hit := l.firstHit(del)
	if !hit {
		return 0
	}
	n := len(l.docs)
	l.docs = dropHits(l.docs[:0], l.docs, del, i, j)
	return n - len(l.docs)
}

// firstHit clips del to l's identifier range and finds the first document
// in both: its index i in l's postings and j in the clipped del, which it
// returns.
func (l *List) firstHit(del []DocID) (i int, clipped []DocID, j int, hit bool) {
	docs := l.Docs()
	if len(docs) == 0 || len(del) == 0 {
		return 0, nil, 0, false
	}
	lo, _ := slices.BinarySearch(del, docs[0])
	hi, found := slices.BinarySearch(del[lo:], docs[len(docs)-1])
	if found {
		hi++
	}
	del = del[lo : lo+hi]
	if len(del) == 0 {
		return 0, nil, 0, false
	}
	skip, _ := slices.BinarySearch(docs, del[0])
	i, j, hit = nextHit(docs[skip:], del)
	return skip + i, del, j, hit
}

// dropHits appends to out the postings of docs not in del, given their
// first common document docs[i] == del[j]. out may share docs' storage
// from its start: it never outgrows the postings already read.
func dropHits(out, docs, del []DocID, i, j int) []DocID {
	for hit := true; hit; i, j, hit = nextHit(docs, del) {
		out = append(out, docs[:i]...)
		docs, del = docs[i+1:], del[j+1:]
	}
	return append(out, docs...)
}

// nextHit merges the sorted identifiers docs and del up to their first
// common document, reporting its index in each.
func nextHit(docs, del []DocID) (i, j int, hit bool) {
	for i < len(docs) && j < len(del) {
		switch d := docs[i]; {
		case d < del[j]:
			i++
		case d > del[j]:
			j++
		default:
			return i, j, true
		}
	}
	return 0, 0, false
}
