package lexer

import (
	"reflect"
	"strings"
	"testing"
)

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
		lineOpt := opt
		lineOpt.KeepDuplicates = true
		for _, w := range appendLineTokens(nil, line, lineOpt) {
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
