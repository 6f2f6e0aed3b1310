// Package postings implements posting lists for inverted indexes.
//
// A posting records one occurrence of a word in a document. Posting lists
// are kept sorted by document identifier so that boolean queries can be
// answered by linear merges, exactly as the paper assumes ("the document
// identifiers appear in sorted order in inverted lists" and "all long lists
// are updated by appending new postings").
//
// The package also provides a compact on-disk encoding (delta + varint)
// whose compression ratio is what the paper models implicitly through the
// BlockPosting parameter.
package postings

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// DocID identifies a document. New documents receive strictly increasing
// identifiers, which is what makes append-only long-list maintenance sound.
type DocID uint32

// WordID identifies a word across the whole index, mirroring the paper's
// conversion of words to unique integers before the bucket computation.
type WordID uint32

// Posting records the occurrence of a word in a document. Freq carries the
// within-document frequency; for an abstracts-style index it is typically 1
// because duplicate tokens are dropped per document.
type Posting struct {
	Doc  DocID
	Freq uint32
}

// List is a posting list sorted by ascending document identifier.
// The zero value is an empty, ready-to-use list.
type List struct {
	ps []Posting
}

// NewList returns a list holding the given postings. The postings must be
// sorted by ascending DocID with no duplicates; NewList panics otherwise so
// that corrupted lists are caught at construction time.
func NewList(ps []Posting) *List {
	for i := 1; i < len(ps); i++ {
		if ps[i].Doc <= ps[i-1].Doc {
			panic(fmt.Sprintf("postings: out of order at %d: %d <= %d", i, ps[i].Doc, ps[i-1].Doc))
		}
	}
	return &List{ps: ps}
}

// FromDocs builds a list from document identifiers, each with frequency 1.
// The identifiers may be unsorted and may contain duplicates; duplicates
// accumulate frequency.
func FromDocs(docs []DocID) *List {
	sorted := make([]DocID, len(docs))
	copy(sorted, docs)
	slices.Sort(sorted)
	l := &List{}
	for _, d := range sorted {
		if n := len(l.ps); n > 0 && l.ps[n-1].Doc == d {
			l.ps[n-1].Freq++
			continue
		}
		l.ps = append(l.ps, Posting{Doc: d, Freq: 1})
	}
	return l
}

// Len reports the number of postings in the list.
func (l *List) Len() int {
	if l == nil {
		return 0
	}
	return len(l.ps)
}

// Postings returns the underlying slice. Callers must not mutate it.
func (l *List) Postings() []Posting {
	if l == nil {
		return nil
	}
	return l.ps
}

// Docs returns the document identifiers in the list, in ascending order.
func (l *List) Docs() []DocID {
	out := make([]DocID, l.Len())
	for i, p := range l.Postings() {
		out[i] = p.Doc
	}
	return out
}

// Clone returns a deep copy of the list.
func (l *List) Clone() *List {
	ps := make([]Posting, l.Len())
	copy(ps, l.Postings())
	return &List{ps: ps}
}

// MaxDoc returns the largest document identifier in the list, or 0 for an
// empty list. Because lists are sorted this is the last posting.
func (l *List) MaxDoc() DocID {
	if l.Len() == 0 {
		return 0
	}
	return l.ps[len(l.ps)-1].Doc
}

// ErrAppendOrder is returned when an append would violate the ascending
// document-identifier invariant.
var ErrAppendOrder = errors.New("postings: appended postings must have larger doc IDs")

// Append appends the postings of m to l in place. Every document identifier
// in m must exceed l.MaxDoc(); this mirrors the paper's assumption that new
// documents are numbered in increasing order so long lists only grow at the
// tail. Appending a posting for a document already present merges the
// frequencies only when it is the current tail document.
func (l *List) Append(m *List) error {
	if m.Len() == 0 {
		return nil
	}
	if l.Len() > 0 && m.ps[0].Doc <= l.MaxDoc() {
		return fmt.Errorf("%w: have max %d, got %d", ErrAppendOrder, l.MaxDoc(), m.ps[0].Doc)
	}
	l.ps = append(l.ps, m.ps...)
	return nil
}

// Concat returns a new list holding the postings of l followed by those of
// m, leaving both untouched. Like Append, every document identifier in m
// must exceed l.MaxDoc(). Either list may be nil.
func Concat(l, m *List) (*List, error) {
	if l.Len() > 0 && m.Len() > 0 && m.ps[0].Doc <= l.MaxDoc() {
		return nil, fmt.Errorf("%w: have max %d, got %d", ErrAppendOrder, l.MaxDoc(), m.ps[0].Doc)
	}
	ps := make([]Posting, 0, l.Len()+m.Len())
	ps = append(ps, l.Postings()...)
	return &List{ps: append(ps, m.Postings()...)}, nil
}

// Push appends one posting in place, keeping the ascending-identifier
// invariant: doc must be at least MaxDoc(). Pushing the current tail
// document again accumulates its frequency, so a tokenized document can be
// pushed one occurrence at a time. Push is how the pending tier grows a
// per-word run incrementally — one posting per arriving document — where
// Append moves whole already-built lists. It panics on an out-of-order
// document, like NewList, so a corrupted run is caught at construction.
func (l *List) Push(doc DocID, freq uint32) {
	if n := len(l.ps); n > 0 {
		switch tail := &l.ps[n-1]; {
		case tail.Doc == doc:
			tail.Freq += freq
			return
		case tail.Doc > doc:
			panic(fmt.Sprintf("postings: push out of order: have max %d, got %d", tail.Doc, doc))
		}
	}
	l.ps = append(l.ps, Posting{Doc: doc, Freq: freq})
}

// Intersect returns the postings present in both lists, with frequencies
// summed, using a linear merge.
func Intersect(a, b *List) *List {
	out := &List{}
	i, j := 0, 0
	for i < a.Len() && j < b.Len() {
		switch {
		case a.ps[i].Doc < b.ps[j].Doc:
			i++
		case a.ps[i].Doc > b.ps[j].Doc:
			j++
		default:
			out.ps = append(out.ps, Posting{Doc: a.ps[i].Doc, Freq: a.ps[i].Freq + b.ps[j].Freq})
			i++
			j++
		}
	}
	return out
}

// Union returns the postings present in either list, with frequencies summed
// for shared documents, using a linear merge.
func Union(a, b *List) *List {
	out := &List{ps: make([]Posting, 0, a.Len()+b.Len())}
	i, j := 0, 0
	for i < a.Len() && j < b.Len() {
		switch {
		case a.ps[i].Doc < b.ps[j].Doc:
			out.ps = append(out.ps, a.ps[i])
			i++
		case a.ps[i].Doc > b.ps[j].Doc:
			out.ps = append(out.ps, b.ps[j])
			j++
		default:
			out.ps = append(out.ps, Posting{Doc: a.ps[i].Doc, Freq: a.ps[i].Freq + b.ps[j].Freq})
			i++
			j++
		}
	}
	out.ps = append(out.ps, a.ps[i:]...)
	out.ps = append(out.ps, b.ps[j:]...)
	return out
}

// Difference returns the postings of a whose documents do not appear in b.
func Difference(a, b *List) *List {
	out := &List{}
	i, j := 0, 0
	for i < a.Len() {
		for j < b.Len() && b.ps[j].Doc < a.ps[i].Doc {
			j++
		}
		if j < b.Len() && b.ps[j].Doc == a.ps[i].Doc {
			i++
			continue
		}
		out.ps = append(out.ps, a.ps[i])
		i++
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
	ps := l.Postings()
	if len(ps) == 0 || len(del) == 0 {
		return l, 0
	}
	lo, _ := slices.BinarySearch(del, ps[0].Doc)
	hi, found := slices.BinarySearch(del[lo:], ps[len(ps)-1].Doc)
	if found {
		hi++
	}
	del = del[lo : lo+hi]
	if len(del) == 0 {
		return l, 0
	}
	skip := sort.Search(len(ps), func(i int) bool { return ps[i].Doc >= del[0] })
	i, j, hit := nextHit(ps[skip:], del)
	if !hit {
		return l, 0
	}
	i += skip
	out := make([]Posting, 0, len(ps)-1)
	for hit {
		out = append(out, ps[:i]...)
		ps, del = ps[i+1:], del[j+1:]
		i, j, hit = nextHit(ps, del)
	}
	out = append(out, ps...)
	return &List{ps: out}, l.Len() - len(out)
}

// nextHit merges ps against the sorted identifiers del up to their first
// common document, reporting its index in each.
func nextHit(ps []Posting, del []DocID) (i, j int, hit bool) {
	for i < len(ps) && j < len(del) {
		switch d := ps[i].Doc; {
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
