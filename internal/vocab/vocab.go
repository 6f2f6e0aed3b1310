// Package vocab maintains the word ↔ identifier mapping of the index — the
// paper's conversion of words to unique integers before the bucket
// computation (traditional systems kept a B-tree from word to list
// location; here the directory and bucket hash handle locations, so the
// vocabulary only needs the string-to-integer step).
package vocab

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"dualindex/internal/btree"
	"dualindex/internal/postings"
)

// Vocab is an in-memory bidirectional word map. Identifiers are assigned
// densely in first-seen order. A B+tree dictionary — the structure
// traditional retrieval systems keep for their vocabulary — backs ordered
// and prefix scans for truncation queries. It is built on the first prefix
// scan, not when the vocabulary is loaded, so opening an index pays nothing
// for truncation queries it may never run. The zero value is not usable;
// call New.
//
// The read methods (Lookup, Word, WordsWithPrefix, Len, WriteTo) may run
// concurrently with each other; GetOrAssign must run alone.
type Vocab struct {
	ids   map[string]postings.WordID
	words []string

	// once guards the first build of tree: concurrent prefix scans may race
	// to it. Once built, GetOrAssign keeps it current.
	once sync.Once
	tree *btree.Tree
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

// GetOrAssign returns word's identifier, assigning the next free one on
// first sight.
func (v *Vocab) GetOrAssign(word string) postings.WordID {
	if id, ok := v.ids[word]; ok {
		return id
	}
	id := postings.WordID(len(v.words))
	v.ids[word] = id
	v.words = append(v.words, word)
	if v.tree != nil {
		v.tree.Set(word, uint64(id))
	}
	return id
}

// WordsWithPrefix returns every word starting with prefix, in lexicographic
// order — the dictionary scan behind truncation queries like "inver*".
func (v *Vocab) WordsWithPrefix(prefix string) []string {
	v.once.Do(func() {
		t := btree.New()
		for id, word := range v.words {
			t.Set(word, uint64(id))
		}
		v.tree = t
	})
	var out []string
	v.tree.Prefix(prefix, func(key string, _ uint64) bool {
		out = append(out, key)
		return true
	})
	return out
}

// Word returns the string for an identifier.
func (v *Vocab) Word(id postings.WordID) (string, bool) {
	if int(id) >= len(v.words) {
		return "", false
	}
	return v.words[id], true
}

// WriteTo serialises the vocabulary as a header line holding the word
// count, then one word per line, in identifier order. Words never contain
// newlines (the lexer admits only [a-z0-9]).
func (v *Vocab) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	bw.WriteString(strconv.Itoa(len(v.words)))
	bw.WriteByte('\n')
	n := int64(bw.Buffered())
	for _, word := range v.words {
		// A bufio.Writer keeps its first error and reports it from Flush.
		bw.WriteString(word)
		bw.WriteByte('\n')
		n += int64(len(word)) + 1
	}
	return n, bw.Flush()
}

// Read reconstructs a vocabulary serialised by WriteTo.
func Read(r io.Reader) (*Vocab, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("vocab: missing header")
	}
	count, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
	if err != nil || count < 0 {
		return nil, fmt.Errorf("vocab: bad header %q", sc.Text())
	}
	// Presize from the header, capped so a corrupt count cannot allocate
	// more than a large real vocabulary needs before the file runs out.
	size := min(count, maxPresize)
	v := &Vocab{ids: make(map[string]postings.WordID, size), words: make([]string, 0, size)}
	for i := 0; i < count; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("vocab: truncated at word %d of %d", i, count)
		}
		word := sc.Text()
		if _, dup := v.ids[word]; dup {
			return nil, fmt.Errorf("vocab: duplicate word %q", word)
		}
		v.GetOrAssign(word)
	}
	return v, sc.Err()
}

// maxPresize caps the word count Read trusts from a header.
const maxPresize = 1 << 20
