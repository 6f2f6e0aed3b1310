// Package vocab maintains the word ↔ identifier mapping of the index — the
// paper's conversion of words to unique integers before the bucket
// computation. Traditional systems kept a B-tree from word to list
// location; here the directory and bucket hash handle locations, so the
// vocabulary only needs the string-to-integer step, plus a sorted view of
// the words for truncation queries.
package vocab

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"dualindex/internal/postings"
)

// Vocab is an in-memory bidirectional word map. Identifiers are assigned
// densely in first-seen order. Prefix scans for truncation queries run
// over a view of the identifiers sorted by word, which is brought up to
// date by the scans themselves: assignment does no ordered work, and
// opening an index pays nothing for truncation queries it may never run.
// The zero value is not usable; call New.
//
// The read methods (Lookup, WordsWithPrefix, Len, AppendLog) may run
// concurrently with each other; GetOrAssign and Cut must run alone.
type Vocab struct {
	ids   map[string]postings.WordID
	words []string

	// mu guards sorted, which concurrent prefix scans extend. sorted holds
	// the identifiers 0..len(sorted)-1 ordered by word.
	mu     sync.Mutex
	sorted []postings.WordID
}

// New returns an empty vocabulary.
func New() *Vocab {
	return &Vocab{ids: make(map[string]postings.WordID)}
}

// Len reports the number of words.
func (v *Vocab) Len() int { return len(v.words) }

// Lookup returns the identifier for word, if assigned.
func (v *Vocab) Lookup(word string) (postings.WordID, bool) {
	id, ok := v.ids[word]
	return id, ok
}

// LookupBytes is Lookup for a word held as bytes, such as a token in the
// lexer's scan buffer. It allocates nothing.
func (v *Vocab) LookupBytes(word []byte) (postings.WordID, bool) {
	id, ok := v.ids[string(word)]
	return id, ok
}

// GetOrAssign returns word's identifier, assigning the next free one on
// first sight.
func (v *Vocab) GetOrAssign(word string) postings.WordID {
	if id, ok := v.ids[word]; ok {
		return id
	}
	id := postings.WordID(len(v.words))
	v.ids[word] = id
	v.words = append(v.words, word)
	return id
}

// WordsWithPrefix returns every word starting with prefix, in lexicographic
// order — the dictionary scan behind truncation queries like "inver*". It
// first sorts the words assigned since the previous scan and merges them
// into the sorted view, then binary-searches for the prefix's first word.
func (v *Vocab) WordsWithPrefix(prefix string) []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	if old := len(v.sorted); old < len(v.words) {
		fresh := make([]postings.WordID, 0, len(v.words)-old)
		for id := old; id < len(v.words); id++ {
			fresh = append(fresh, postings.WordID(id))
		}
		slices.SortFunc(fresh, func(a, b postings.WordID) int { return strings.Compare(v.words[a], v.words[b]) })
		// Merge from the back, so the view grows in place. Words are
		// unique, so there are no ties.
		v.sorted = append(v.sorted, fresh...)
		i, j := old-1, len(fresh)-1
		for k := len(v.sorted) - 1; j >= 0; k-- {
			if i >= 0 && v.words[v.sorted[i]] > v.words[fresh[j]] {
				v.sorted[k] = v.sorted[i]
				i--
			} else {
				v.sorted[k] = fresh[j]
				j--
			}
		}
	}
	lo := sort.Search(len(v.sorted), func(i int) bool { return v.words[v.sorted[i]] >= prefix })
	var out []string
	for _, id := range v.sorted[lo:] {
		if !strings.HasPrefix(v.words[id], prefix) {
			break
		}
		out = append(out, v.words[id])
	}
	return out
}

// AppendLog appends to b the log lines of the words from identifier from
// on, one word and a newline each, in identifier order: the bytes a
// vocabulary log gains when those words are assigned. Words never contain
// newlines (the lexer admits only [a-z0-9]).
func (v *Vocab) AppendLog(b []byte, from int) []byte {
	for _, word := range v.words[from:] {
		b = append(b, word...)
		b = append(b, '\n')
	}
	return b
}

// Parse reconstructs a vocabulary from its log: one word per line, in
// identifier order. A last line without its newline is an append that never
// completed, and is ignored; so the words parsed are exactly those whose
// lines AppendLog writes back. Lines may be of any length: the lexer bounds
// no token, so neither does the log. A repeated word is refused. The words
// share log's bytes, so the caller must not write to log again.
func Parse(log []byte) (*Vocab, error) {
	log = log[:bytes.LastIndexByte(log, '\n')+1]
	n := bytes.Count(log, []byte{'\n'})
	v := &Vocab{ids: make(map[string]postings.WordID, n), words: make([]string, 0, n)}
	text := unsafe.String(unsafe.SliceData(log), len(log))
	for text != "" {
		end := strings.IndexByte(text, '\n')
		word := text[:end]
		if _, dup := v.ids[word]; dup {
			return nil, fmt.Errorf("vocab: duplicate word %q at line %d", word, v.Len()+1)
		}
		v.GetOrAssign(word)
		text = text[end+1:]
	}
	return v, nil
}

// Cut drops the words from identifier n on, as if they had never been
// assigned, and returns the length of the log that holds the words kept.
// n must not exceed Len.
func (v *Vocab) Cut(n int) int64 {
	var size int64
	for _, word := range v.words[:n] {
		size += int64(len(word)) + 1
	}
	for _, word := range v.words[n:] {
		delete(v.ids, word)
	}
	clear(v.words[n:])
	v.words = v.words[:n]
	v.mu.Lock()
	v.sorted = nil // rebuilt by the next prefix scan
	v.mu.Unlock()
	return size
}
