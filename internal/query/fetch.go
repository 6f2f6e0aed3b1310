package query

import (
	"cmp"
	"strings"

	"dualindex/internal/parallel"
	"dualindex/internal/postings"
)

// Prefetched is a Source whose term lists were fetched up front, possibly in
// parallel. Evaluation then runs against memory: List serves prefetched
// words without touching the underlying source and falls through to it for
// anything that was not prefetched.
type Prefetched struct {
	src   Source
	lists map[string]*postings.List
}

// List implements Source.
func (p *Prefetched) List(word string) (*postings.List, error) {
	if l, ok := p.lists[word]; ok {
		return l, nil
	}
	return p.src.List(word)
}

// WordsWithPrefix implements PrefixSource when the underlying source does.
func (p *Prefetched) WordsWithPrefix(prefix string) []string {
	if ps, ok := p.src.(PrefixSource); ok {
		return ps.WordsWithPrefix(prefix)
	}
	return nil
}

// Prefetch fetches the inverted lists of the given terms from src, at most
// workers at a time (parallel.Do), and returns a Source serving them from
// memory. A multi-term query's list reads — the dominant I/O of boolean and
// vector evaluation — thereby overlap across the disks of the array
// instead of arriving one at a time.
//
// Terms ending in '*' are truncation terms; they are expanded through the
// source's vocabulary first so that every expansion is fetched up front.
// A source that cannot expand prefixes leaves them to evaluation, which
// reports the error. src.List must be safe for concurrent use when
// workers > 1. The first failing word's error, in fetch order, is returned.
func Prefetch(terms []string, src Source, workers int) (*Prefetched, error) {
	seen := make(map[string]bool, len(terms))
	words := make([]string, 0, len(terms))
	add := func(w string) {
		if !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
	}
	for _, t := range terms {
		if strings.HasSuffix(t, "*") {
			if ps, ok := src.(PrefixSource); ok {
				for _, w := range ps.WordsWithPrefix(strings.TrimSuffix(t, "*")) {
					add(w)
				}
			}
			continue
		}
		add(t)
	}
	lists := make([]*postings.List, len(words))
	errs := parallel.Do(len(words), workers, func(i int) (err error) {
		lists[i], err = src.List(words[i])
		return err
	})
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	p := &Prefetched{src: src, lists: make(map[string]*postings.List, len(words))}
	for i, w := range words {
		p.lists[w] = lists[i]
	}
	return p, nil
}
