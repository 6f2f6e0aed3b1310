package query

import (
	"runtime"
	"strings"
	"sync"

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

// Prefetch fetches the inverted lists of the given terms from src with a
// bounded pool of at most workers goroutines and returns a Source serving
// them from memory. A multi-term query's list reads — the dominant I/O of
// boolean and vector evaluation — thereby overlap across the disks of the
// array instead of arriving one at a time.
//
// Terms ending in '*' are truncation terms; they are expanded through the
// source's vocabulary first so that every expansion is fetched by the pool.
// A source that cannot expand prefixes leaves them to evaluation, which
// reports the error. workers <= 0 selects GOMAXPROCS. src.List must be safe
// for concurrent use when workers > 1.
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
	p := &Prefetched{src: src, lists: make(map[string]*postings.List, len(words))}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(words) {
		workers = len(words)
	}
	if workers <= 1 {
		for _, w := range words {
			l, err := src.List(w)
			if err != nil {
				return nil, err
			}
			p.lists[w] = l
		}
		return p, nil
	}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	ch := make(chan string)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range ch {
				l, err := src.List(w)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					p.lists[w] = l
				}
				mu.Unlock()
			}
		}()
	}
	for _, w := range words {
		ch <- w
	}
	close(ch)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return p, nil
}
