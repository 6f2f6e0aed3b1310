package lexer

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizePaperFigure4(t *testing.T) {
	// Figure 4 of the paper: a document fragment and its sorted token set.
	doc := "for years. And it was a total flop: in all the years it was available\n" +
		"very few people ever took advantage of it so it was dropped."
	want := []string{
		"a", "advantage", "all", "and", "available", "dropped", "ever", "few",
		"flop", "for", "in", "it", "of", "people", "so", "the", "took",
		"total", "very", "was", "years",
	}
	got := Tokenize(doc, Options{})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v\nwant %v", got, want)
	}
}

func TestTokenizeSplitsLettersAndDigits(t *testing.T) {
	got := Tokenize("abc123def", Options{})
	want := []string{"123", "abc", "def"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeLowercases(t *testing.T) {
	got := Tokenize("Hello HELLO hello", Options{})
	if !reflect.DeepEqual(got, []string{"hello"}) {
		t.Errorf("Tokenize = %v", got)
	}
}

func TestTokenizeSkipsHeaders(t *testing.T) {
	doc := "Date: Mon Nov 15 1993\nSubject words here\nMessage-ID: <x@y>\nbody"
	got := Tokenize(doc, Options{})
	for _, tok := range got {
		if tok == "date" || tok == "nov" || tok == "message" {
			t.Errorf("header token %q leaked through", tok)
		}
	}
	if !contains(got, "body") || !contains(got, "subject") {
		t.Errorf("body tokens missing: %v", got)
	}
}

func TestTokenizeEmptySkipList(t *testing.T) {
	doc := "Date: 1993"
	got := Tokenize(doc, Options{SkipHeaders: []string{}})
	if !contains(got, "date") || !contains(got, "1993") {
		t.Errorf("explicit empty skip list still skipped headers: %v", got)
	}
}

func TestTokenizeMinTokenLen(t *testing.T) {
	got := Tokenize("a bb ccc", Options{MinTokenLen: 2})
	want := []string{"bb", "ccc"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MinTokenLen got %v, want %v", got, want)
	}
}

func TestTokenizeStopWords(t *testing.T) {
	got := Tokenize("the cat sat", Options{StopWords: map[string]bool{"the": true}})
	want := []string{"cat", "sat"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("StopWords got %v, want %v", got, want)
	}
}

func TestTokenizeIgnoresPunctuationOnly(t *testing.T) {
	if got := Tokenize("!!! ... --- ???", Options{}); len(got) != 0 {
		t.Errorf("punctuation produced tokens: %v", got)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize("", Options{}); len(got) != 0 {
		t.Errorf("empty doc produced tokens: %v", got)
	}
}

func TestQuickTokensSortedAndUnique(t *testing.T) {
	f := func(doc string) bool {
		got := Tokenize(doc, Options{})
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTokensAreLowerAlnum(t *testing.T) {
	f := func(doc string) bool {
		for _, tok := range Tokenize(doc, Options{}) {
			if tok == "" {
				return false
			}
			allDigits, allLetters := true, true
			for _, r := range tok {
				if r < '0' || r > '9' {
					allDigits = false
				}
				if r < 'a' || r > 'z' {
					allLetters = false
				}
			}
			if !allDigits && !allLetters {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTokenizeIdempotentOnJoined(t *testing.T) {
	// Tokenizing the space-joined token set again yields the same set.
	f := func(doc string) bool {
		first := Tokenize(doc, Options{})
		second := Tokenize(strings.Join(first, " "), Options{})
		return reflect.DeepEqual(first, second)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func contains(s []string, w string) bool {
	for _, x := range s {
		if x == w {
			return true
		}
	}
	return false
}

func BenchmarkTokenize(b *testing.B) {
	doc := strings.Repeat("the quick brown fox jumps over the lazy dog 1234 ", 100)
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		Tokenize(doc, Options{})
	}
}

func TestTokenizePositionsOrderAndRegions(t *testing.T) {
	doc := "Subject: breaking news today\nDate: irrelevant\nthe news is good news"
	toks := TokenizePositions(doc, Options{})
	want := []Token{
		{"breaking", 0, RegionTitle},
		{"news", 1, RegionTitle},
		{"today", 2, RegionTitle},
		{"the", 3, RegionBody},
		{"news", 4, RegionBody},
		{"is", 5, RegionBody},
		{"good", 6, RegionBody},
		{"news", 7, RegionBody},
	}
	if !reflect.DeepEqual(toks, want) {
		t.Fatalf("TokenizePositions =\n%v\nwant\n%v", toks, want)
	}
}

func TestTokenizePositionsSkipsHeaders(t *testing.T) {
	doc := "Date: Mon\nMessage-ID: <x>\nbody words"
	toks := TokenizePositions(doc, Options{})
	if len(toks) != 2 || toks[0].Word != "body" || toks[0].Pos != 0 {
		t.Fatalf("toks = %v", toks)
	}
}

func TestTokenizePositionsKeepsDuplicates(t *testing.T) {
	toks := TokenizePositions("cat cat cat", Options{})
	if len(toks) != 3 {
		t.Fatalf("toks = %v", toks)
	}
	for i, tok := range toks {
		if tok.Pos != i || tok.Word != "cat" {
			t.Fatalf("token %d = %v", i, tok)
		}
	}
}

func TestQuickPositionsConsistentWithTokenize(t *testing.T) {
	// Every distinct word of TokenizePositions appears in Tokenize's set
	// (modulo the stripped "subject:" marker), and positions are strictly
	// increasing.
	f := func(doc string) bool {
		toks := TokenizePositions(doc, Options{})
		set := map[string]bool{}
		for _, w := range Tokenize(doc, Options{}) {
			set[w] = true
		}
		for i, tok := range toks {
			if tok.Pos != i {
				return false
			}
			if tok.Region != RegionTitle && !set[tok.Word] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
