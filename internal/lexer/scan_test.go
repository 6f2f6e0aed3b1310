package lexer

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"dualindex/internal/corpus"
)

// referenceTokenize is the line-splitting tokenizer Tokens.Scan replaced:
// split into lines, build each lowercased token into a fresh string, sort
// the bag and drop duplicates. Tokenize must return exactly its words.
func referenceTokenize(doc string, opt Options) []string {
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
	return dedupeSorted(tokens)
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

// referenceTokenizePositions is the straightforward positional tokenizer
// ScanPositions replaced: split into lines, tokenize each line into fresh
// strings, number the tokens. ScanPositions must yield exactly its tokens.
func referenceTokenizePositions(doc string, opt Options) []Token {
	skip := opt.SkipHeaders
	if skip == nil {
		skip = DefaultSkipHeaders
	}
	var tokens []Token
	pos := 0
	for _, line := range strings.Split(doc, "\n") {
		region := RegionBody
		trimmed := strings.TrimSpace(line)
		if len(trimmed) >= len("subject:") && strings.EqualFold(trimmed[:len("subject:")], "subject:") {
			region = RegionTitle
			line = trimmed[len("subject:"):]
		} else if skipLine(line, skip) {
			continue
		}
		for _, w := range appendLineTokens(nil, line, opt) {
			tokens = append(tokens, Token{Word: w, Pos: pos, Region: region})
			pos++
		}
	}
	return tokens
}

// scanAll collects ScanPositions' output, copying each word as the
// callback's contract requires.
func scanAll(doc string, opt Options) []Token {
	var toks []Token
	ScanPositions(doc, opt, func(word string, title bool) bool {
		region := RegionBody
		if title {
			region = RegionTitle
		}
		toks = append(toks, Token{Word: strings.Clone(word), Pos: len(toks), Region: region})
		return true
	})
	return toks
}

// scanOptions are the option sets the scanner is compared under: the
// paper's defaults, and a minimum length plus a stop list (both drop
// tokens, so they shift every later position).
var scanOptions = []Options{
	{},
	{MinTokenLen: 3, StopWords: map[string]bool{"the": true, "and": true, "cat": true}},
	{SkipHeaders: []string{}},
}

var scanSeeds = []string{
	"",
	"\n\n",
	"Subject: Breaking NEWS today\nDate: Mon\nthe News is GOOD news",
	"  subject:  title words\n\tSUBJECT:Upper Title\nbody",
	"Message-ID: <x@y>\nPath: a!b\nbody words 1993 abc123def",
	"caf\u00e9 na\u00efve \u00fcber Stra\u00dfe \u2028 x\u00a0y",
	"\xff\xfe bad \xc3 utf8 \xe2\x82",
	"Subject:\nSubject",
	"the and cat THE And CAT a bb ccc dddd",
	"mixed Case CamelCase ALLCAPS lower 42x42",
}

func TestScanPositionsMatchesReference(t *testing.T) {
	docs := append([]string{}, scanSeeds...)
	docs = append(docs, strings.Repeat("Word word WORD 7 ", 300))
	for _, opt := range scanOptions {
		for _, doc := range docs {
			got, want := scanAll(doc, opt), referenceTokenizePositions(doc, opt)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("opt %+v doc %q:\n scan %v\n ref  %v", opt, doc, got, want)
			}
			if col := TokenizePositions(doc, opt); !reflect.DeepEqual(col, want) {
				t.Errorf("opt %+v doc %q: TokenizePositions %v, ref %v", opt, doc, col, want)
			}
		}
	}
}

// TestScanPositionsStops: the scan ends at the first false from fn.
func TestScanPositionsStops(t *testing.T) {
	var seen []string
	ScanPositions("one two\nthree four", Options{}, func(w string, _ bool) bool {
		seen = append(seen, w)
		return w != "three"
	})
	if !reflect.DeepEqual(seen, []string{"one", "two", "three"}) {
		t.Fatalf("scan visited %v, want it to stop after three", seen)
	}
}

// TestScanPositionsAllocs: scanning lowercase text allocates nothing, and
// mixed-case text allocates only its reused lowercase buffer, however long
// the document.
func TestScanPositionsAllocs(t *testing.T) {
	count := func(doc string) float64 {
		return testing.AllocsPerRun(20, func() {
			n := 0
			ScanPositions(doc, Options{}, func(string, bool) bool { n++; return true })
		})
	}
	if a := count(strings.Repeat("subject line words 42\n", 500)); a != 0 {
		t.Errorf("lowercase scan: %v allocs, want 0", a)
	}
	short, long := count("Mixed Case Words"), count(strings.Repeat("Mixed Case Words ", 2000))
	if short != long || long > 1 {
		t.Errorf("mixed-case scan: %v allocs short, %v long; want one buffer for both", short, long)
	}
}

// FuzzScanPositions compares the scanner with the reference tokenizer on
// arbitrary bytes under each option set.
func FuzzScanPositions(f *testing.F) {
	for _, s := range scanSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		for _, opt := range scanOptions {
			got, want := scanAll(doc, opt), referenceTokenizePositions(doc, opt)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("opt %+v doc %q:\n scan %v\n ref  %v", opt, doc, got, want)
			}
		}
	})
}

// tokenizeOptions are the option sets Tokenize is compared under: every
// option alone, the header list nil, empty and custom, and a mix.
var tokenizeOptions = []Options{
	{},
	{MinTokenLen: 3},
	{StopWords: map[string]bool{"the": true, "and": true, "cat": true, "42": true}},
	{SkipHeaders: []string{}},
	{SkipHeaders: []string{"subject:", "x-", "the"}},
	{MinTokenLen: 2, StopWords: map[string]bool{"news": true}, SkipHeaders: []string{"from:"}},
}

// tokenizeSeeds are scanSeeds plus what the engine feeds the add path:
// corpus documents, and text with \r\n line ends.
func tokenizeSeeds(tb testing.TB) []string {
	cfg := corpus.DefaultConfig()
	cfg.Days, cfg.DocsPerDay, cfg.WordsPerDoc = 1, 4, 40
	batches, err := corpus.GenerateAll(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	seeds := append([]string{}, scanSeeds...)
	for _, d := range batches[0].Docs {
		seeds = append(seeds, corpus.DocText(d, 0))
	}
	return append(seeds,
		"Date: today\r\nFrom: someone\r\nBody Line one\r\n\r\nline TWO two 2\r\n",
		"x-header: hidden\nThe the THE and AND cat Cat 42 42x 4 2",
		"abc123DEF456ghi 0 00 000 zZ Zz",
	)
}

func TestTokenizeMatchesReference(t *testing.T) {
	docs := append(tokenizeSeeds(t), strings.Repeat("Word word WORD 7 the ", 300))
	for _, opt := range tokenizeOptions {
		for _, doc := range docs {
			if got, want := Tokenize(doc, opt), referenceTokenize(doc, opt); !slices.Equal(got, want) {
				t.Errorf("opt %+v doc %q:\n got %v\n ref %v", opt, doc, got, want)
			}
		}
	}
}

// FuzzScanMatchesTokenize compares Tokenize, now a collector over
// Tokens.Scan, with the reference tokenizer on arbitrary bytes: the same
// sorted set of words.
func FuzzScanMatchesTokenize(f *testing.F) {
	for _, s := range tokenizeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		for _, opt := range tokenizeOptions {
			if got, want := Tokenize(doc, opt), referenceTokenize(doc, opt); !slices.Equal(got, want) {
				t.Fatalf("opt %+v doc %q:\n got %v\n ref %v", opt, doc, got, want)
			}
		}
	})
}

// TestTokensWordsInTextOrder: Scan keeps every occurrence, in text order.
func TestTokensWordsInTextOrder(t *testing.T) {
	var toks Tokens
	toks.Scan("Date: skipped\nThe cat, the CAT 9lives", Options{})
	var got []string
	for i := 0; i < toks.Len(); i++ {
		got = append(got, string(toks.Word(i)))
	}
	want := []string{"the", "cat", "the", "cat", "9", "lives"}
	if !slices.Equal(got, want) {
		t.Fatalf("Scan found %v, want %v", got, want)
	}
	toks.Scan("", Options{})
	if toks.Len() != 0 {
		t.Fatalf("rescanning empty text left %d tokens", toks.Len())
	}
}

// TestTokensScanAllocs: a reused Tokens scans mixed-case text with as many
// allocations at 10,000 tokens as at 100 — none, once its buffers grew.
func TestTokensScanAllocs(t *testing.T) {
	count := func(doc string) float64 {
		var toks Tokens
		return testing.AllocsPerRun(20, func() { toks.Scan(doc, Options{}) })
	}
	short, long := count(strings.Repeat("Mixed case 42 ", 33)), count(strings.Repeat("Mixed case 42 ", 3333))
	if short != long || long != 0 {
		t.Errorf("reused scan: %v allocs at 100 tokens, %v at 10,000; want 0 for both", short, long)
	}
}
