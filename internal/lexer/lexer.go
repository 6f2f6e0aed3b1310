// Package lexer implements the document tokenizer of the paper's
// invert-index process (§4.2): sequences of letters and sequences of digits
// are tokens, all other characters are ignored, certain header lines (such
// as "Date:") are skipped, tokens are lowercased into words, and duplicate
// tokens within a document are dropped — yielding the set of words per
// document that an abstracts-style index records.
package lexer

import (
	"slices"
	"strings"
	"unsafe"
)

// Options control tokenization. The zero value gives the paper's behaviour.
type Options struct {
	// KeepDuplicates keeps one token per occurrence instead of deduplicating
	// per document. The paper drops duplicates ("duplicate tokens for a
	// document are dropped"); full-text positional indexes would keep them.
	KeepDuplicates bool
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
// The result is sorted and (unless KeepDuplicates) duplicate-free, matching
// the paper's Figure 4 example output.
func Tokenize(doc string, opt Options) []string {
	skip := opt.SkipHeaders
	if skip == nil {
		skip = DefaultSkipHeaders
	}
	var tokens []string
	for _, line := range strings.Split(doc, "\n") {
		if skipLine(line, skip) {
			continue
		}
		tokens = appendLineTokens(tokens, line, opt)
	}
	slices.Sort(tokens)
	if !opt.KeepDuplicates {
		tokens = dedupeSorted(tokens)
	}
	return tokens
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

// appendLineTokens scans one line for letter-runs and digit-runs. A run of
// letters ends when a non-letter appears and vice versa, so "abc123" yields
// two tokens: "abc" and "123".
func appendLineTokens(tokens []string, line string, opt Options) []string {
	var b strings.Builder
	var mode rune // 0 = none, 'a' = letters, 'd' = digits
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := strings.ToLower(b.String())
		b.Reset()
		if opt.MinTokenLen > 0 && len(tok) < opt.MinTokenLen {
			return
		}
		if opt.StopWords[tok] {
			return
		}
		tokens = append(tokens, tok)
	}
	for _, r := range line {
		switch {
		case isLetter(r):
			if mode != 'a' {
				flush()
				mode = 'a'
			}
			b.WriteRune(r)
		case isDigit(r):
			if mode != 'd' {
				flush()
				mode = 'd'
			}
			b.WriteRune(r)
		default:
			flush()
			mode = 0
		}
	}
	flush()
	return tokens
}

func isLetter(r rune) bool { return (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') }
func isDigit(r rune) bool  { return r >= '0' && r <= '9' }

func dedupeSorted(s []string) []string {
	out := s[:0]
	for i, t := range s {
		if i == 0 || t != s[i-1] {
			out = append(out, t)
		}
	}
	return out
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
	skip := opt.SkipHeaders
	if skip == nil {
		skip = DefaultSkipHeaders
	}
	var lower []byte
	for rest := doc; ; {
		line, next, more := strings.Cut(rest, "\n")
		title := false
		trimmed := strings.TrimSpace(line)
		if len(trimmed) >= len("subject:") && strings.EqualFold(trimmed[:len("subject:")], "subject:") {
			title = true
			line = trimmed[len("subject:"):]
		} else if skipLine(line, skip) {
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
				return
			}
		}
		if !more {
			return
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
