// Package lexer implements the document tokenizer of the paper's
// invert-index process (§4.2): sequences of letters and sequences of digits
// are tokens, all other characters are ignored, certain header lines (such
// as "Date:") are skipped, tokens are lowercased into words, and duplicate
// tokens within a document are dropped — yielding the set of words per
// document that an abstracts-style index records.
//
// One byte scanner finds every token, with no string per token: Tokens.Scan
// lowercases a document's tokens into one reused buffer (the engine's add
// path resolves word identifiers straight from it), ScanPositions streams
// them with their title region for positional checks, and Tokenize and
// TokenizePositions collect the same tokens into strings.
package lexer

import (
	"slices"
	"strings"
	"unsafe"
)

// Options control tokenization. The zero value gives the paper's behaviour.
type Options struct {
	// SkipHeaders lists line prefixes (matched case-insensitively) whose
	// whole line is ignored. If nil, DefaultSkipHeaders is used. Pass an
	// empty non-nil slice to skip nothing.
	SkipHeaders []string
	// MinTokenLen drops tokens shorter than this many characters. Zero means
	// keep all tokens.
	MinTokenLen int
	// StopWords are words removed after lowercasing (e.g. "the", "and").
	// The paper indexes everything ("minus perhaps some stop words"); the
	// default is no stop list.
	StopWords map[string]bool
}

// DefaultSkipHeaders are NetNews/mail header prefixes the paper's lexical
// analysis ignores ("certain lines of a document (such as 'Date:' lines) are
// also ignored").
var DefaultSkipHeaders = []string{
	"date:", "message-id:", "references:", "path:", "xref:",
	"nntp-posting-host:", "lines:", "sender:", "received:",
}

// Tokenize splits a document into lowercase words per the paper's rules.
// The result is sorted and duplicate-free — the paper drops duplicates
// ("duplicate tokens for a document are dropped") — matching its Figure 4
// example output. It collects what Tokens.Scan finds.
func Tokenize(doc string, opt Options) []string {
	var t Tokens
	t.Scan(doc, opt)
	if t.Len() == 0 {
		return nil
	}
	tokens := make([]string, t.Len())
	for i := range tokens {
		tokens[i] = string(t.Word(i))
	}
	slices.Sort(tokens)
	return slices.Compact(tokens)
}

// Tokens is one document's tokens in text order, every occurrence kept: the
// lowercased bytes of all tokens back to back in one buffer, and where each
// ends. Scanning into it allocates nothing per token, and a Tokens reused
// across documents stops allocating once its buffers have grown.
type Tokens struct {
	buf   []byte
	ends  []int
	lower []byte // the run scanner's lowercasing scratch
}

// Scan replaces t's contents with doc's tokens under Tokenize's rules.
func (t *Tokens) Scan(doc string, opt Options) {
	if cap(t.buf) < len(doc) {
		// The tokens' bytes never outnumber the document's.
		t.buf = make([]byte, 0, len(doc))
	}
	t.buf, t.ends = t.buf[:0], t.ends[:0]
	t.lower = scanRuns(doc, opt, false, t.lower, func(word string, _ bool) bool {
		t.buf = append(t.buf, word...)
		t.ends = append(t.ends, len(t.buf))
		return true
	})
}

// Len reports the number of tokens.
func (t *Tokens) Len() int { return len(t.ends) }

// Word returns token i's lowercased bytes, a view of t's buffer that the
// next Scan overwrites.
func (t *Tokens) Word(i int) []byte {
	start := 0
	if i > 0 {
		start = t.ends[i-1]
	}
	return t.buf[start:t.ends[i]:t.ends[i]]
}

func skipLine(line string, skip []string) bool {
	trimmed := strings.TrimSpace(line)
	for _, prefix := range skip {
		if len(trimmed) >= len(prefix) && strings.EqualFold(trimmed[:len(prefix)], prefix) {
			return true
		}
	}
	return false
}

// Token is one positional token: the word, its 0-based position in the
// document's token sequence, and the region it occurred in. The paper's
// introduction notes postings "may include a variety of information, such
// as the word offset within the document where w occurs or the region where
// w occurs (title, abstract, author list, etc.)"; positional tokens are the
// raw material for proximity and region conditions.
type Token struct {
	Word   string
	Pos    int
	Region string
}

// Regions.
const (
	RegionTitle = "title"
	RegionBody  = "body"
)

// TokenizePositions tokenizes a document keeping order, positions and
// regions: lines beginning with "Subject:" contribute title-region tokens
// (the News article's title), skipped header lines contribute nothing, and
// everything else is body. Duplicates are kept — positions make them
// meaningful. A token's position counts the tokens emitted before it, so a
// dropped stop word or a line break leaves no gap.
func TokenizePositions(doc string, opt Options) []Token {
	var tokens []Token
	ScanPositions(doc, opt, func(word string, title bool) bool {
		region := RegionBody
		if title {
			region = RegionTitle
		}
		tokens = append(tokens, Token{Word: strings.Clone(word), Pos: len(tokens), Region: region})
		return true
	})
	return tokens
}

// ScanPositions calls fn for each token TokenizePositions yields, in order,
// with title reporting the title region, and stops early when fn returns
// false. It allocates nothing per token: word is a substring of doc, or,
// when the token has uppercase letters, a view of a lowercase buffer the
// scan reuses. word is therefore valid only until fn returns; a caller that
// keeps it must copy it.
func ScanPositions(doc string, opt Options, fn func(word string, title bool) bool) {
	scanRuns(doc, opt, true, nil, fn)
}

// scanRuns is the one token scanner behind Tokens.Scan and ScanPositions. It
// calls fn with each token of doc in order until fn returns false. Skipped
// header lines contribute nothing. With subjects set, a line beginning with
// "Subject:" contributes the tokens after that prefix, reported as title;
// otherwise it is an ordinary line. word is a substring of doc or, for a
// token with uppercase letters, a view of lower, the lowercasing buffer,
// which scanRuns grows as needed and returns for reuse.
func scanRuns(doc string, opt Options, subjects bool, lower []byte, fn func(word string, title bool) bool) []byte {
	skip := opt.SkipHeaders
	if skip == nil {
		skip = DefaultSkipHeaders
	}
	for rest := doc; ; {
		line, next, more := strings.Cut(rest, "\n")
		title := false
		if subjects {
			trimmed := strings.TrimSpace(line)
			if len(trimmed) >= len("subject:") && strings.EqualFold(trimmed[:len("subject:")], "subject:") {
				title = true
				line = trimmed[len("subject:"):]
			}
		}
		if !title && skipLine(line, skip) {
			line = ""
		}
		// Tokens are ASCII letter-runs and digit-runs, so scanning bytes
		// finds the same runs as scanning runes: every byte of a multi-byte
		// or invalid UTF-8 sequence is above 0x7F, a separator either way.
		for i := 0; i < len(line); {
			class := byteClass(line[i])
			if class == 0 {
				i++
				continue
			}
			start, upper := i, false
			for ; i < len(line) && byteClass(line[i]) == class; i++ {
				upper = upper || (line[i] >= 'A' && line[i] <= 'Z')
			}
			word := line[start:i]
			if opt.MinTokenLen > 0 && len(word) < opt.MinTokenLen {
				continue
			}
			if upper {
				lower = lower[:0]
				for j := 0; j < len(word); j++ {
					lower = append(lower, word[j]|0x20) // ASCII letters only
				}
				word = unsafe.String(unsafe.SliceData(lower), len(lower))
			}
			if opt.StopWords[word] {
				continue
			}
			if !fn(word, title) {
				return lower
			}
		}
		if !more {
			return lower
		}
		rest = next
	}
}

// byteClass reports which run a byte extends: 'a' for an ASCII letter, 'd'
// for a digit, 0 for a separator.
func byteClass(b byte) byte {
	switch {
	case (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z'):
		return 'a'
	case b >= '0' && b <= '9':
		return 'd'
	}
	return 0
}
