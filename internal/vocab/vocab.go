// Package vocab maintains the word ↔ identifier mapping of the index — the
// paper's conversion of words to unique integers before the bucket
// computation. Traditional systems kept a B-tree from word to list
// location; here the directory and bucket hash handle locations, so the
// vocabulary only needs the string-to-integer step, plus a sorted view of
// the words for truncation queries.
package vocab

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dualindex/internal/postings"
)

// Vocab is an in-memory bidirectional word map. Identifiers are assigned
// densely in first-seen order. Prefix scans for truncation queries run
// over a view of the identifiers sorted by word, which is brought up to
// date by the scans themselves: assignment does no ordered work, and
// opening an index pays nothing for truncation queries it may never run.
// The zero value is not usable; call New.
//
// The read methods (Lookup, WordsWithPrefix, Len, WriteTo) may run
// concurrently with each other; GetOrAssign must run alone.
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

// Read reconstructs a vocabulary serialised by WriteTo. Lines may be of any
// length: the lexer bounds no token, so neither does the file.
func Read(r io.Reader) (*Vocab, error) {
	// A large buffer reads a vocabulary file in few system calls.
	br := bufio.NewReaderSize(r, 1<<20)
	header, ok, err := readLine(br)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("vocab: missing header")
	}
	count, err := strconv.Atoi(strings.TrimSpace(header))
	if err != nil || count < 0 {
		return nil, fmt.Errorf("vocab: bad header %q", header)
	}
	// Presize from the header, capped so a corrupt count cannot allocate
	// more than a large real vocabulary needs before the file runs out.
	size := min(count, maxPresize)
	v := &Vocab{ids: make(map[string]postings.WordID, size), words: make([]string, 0, size)}
	for i := 0; i < count; i++ {
		word, ok, err := readLine(br)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("vocab: truncated at word %d of %d", i, count)
		}
		if _, dup := v.ids[word]; dup {
			return nil, fmt.Errorf("vocab: duplicate word %q", word)
		}
		v.GetOrAssign(word)
	}
	return v, nil
}

// readLine returns the next line without its end-of-line marker (an
// optional carriage return and a newline), as bufio.ScanLines splits them;
// a final line may lack the newline. ok is false at the end of input. A line
// longer than the reader's buffer is gathered piecewise, and the string is
// allocated at the line's exact length.
func readLine(br *bufio.Reader) (line string, ok bool, err error) {
	b, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := slices.Clone(b)
		for err == bufio.ErrBufferFull {
			b, err = br.ReadSlice('\n')
			long = append(long, b...)
		}
		b = long
	}
	switch {
	case err == io.EOF:
		if len(b) == 0 {
			return "", false, nil
		}
	case err != nil:
		return "", false, err
	default:
		b = b[:len(b)-1]
	}
	return string(bytes.TrimSuffix(b, []byte("\r"))), true, nil
}

// maxPresize caps the word count Read trusts from a header.
const maxPresize = 1 << 20
