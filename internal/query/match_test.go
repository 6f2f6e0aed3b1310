package query

import (
	"strings"
	"testing"

	"dualindex/internal/lexer"
)

// Match is the reference form of MatchText: it decides the check over a
// fully materialized token slice (lexer.TokenizePositions).
func (c Check) Match(toks []lexer.Token) bool {
	switch c.Kind {
	case "phrase":
		return containsPhrase(toks, c.Ordered)
	case "near":
		return containsNear(toks, c.A, c.B, c.K)
	case "region":
		for _, t := range toks {
			if t.Word == c.Word && t.Region == c.Region {
				return true
			}
		}
	}
	return false
}

// containsPhrase reports whether the token sequence contains the words at
// consecutive positions. Positions count emitted tokens only, so a dropped
// stop word or a region boundary between two words does not break their
// adjacency.
func containsPhrase(toks []lexer.Token, words []string) bool {
	if len(words) == 0 {
		return false
	}
outer:
	for i := 0; i+len(words) <= len(toks); i++ {
		for j, w := range words {
			if toks[i+j].Word != w || toks[i+j].Pos != toks[i].Pos+j {
				continue outer
			}
		}
		return true
	}
	return false
}

// containsNear reports whether a and b occur within k positions.
func containsNear(toks []lexer.Token, a, b string, k int) bool {
	lastA, lastB := -1, -1
	for _, t := range toks {
		switch t.Word {
		case a:
			if lastB >= 0 && t.Pos-lastB <= k {
				return true
			}
			lastA = t.Pos
			if a == b {
				lastB = t.Pos
			}
		case b:
			if lastA >= 0 && t.Pos-lastA <= k {
				return true
			}
			lastB = t.Pos
		}
	}
	return false
}

// positionalCheck plans q under opt and returns its one positional check.
func positionalCheck(t *testing.T, q string, opt lexer.Options) Check {
	t.Helper()
	e, err := ParseQuery(q)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", q, err)
	}
	pl, err := NewPlan(e, PlanOptions{Lexer: opt})
	if err != nil {
		t.Fatalf("NewPlan(%q): %v", q, err)
	}
	v, ok := pl.Root.(VerifyStep)
	if !ok {
		t.Fatalf("%q planned to %T, want a VerifyStep", q, pl.Root)
	}
	return v.Check
}

// TestMatchTextAdjacency pins what adjacency means, in the streaming matcher
// and the reference alike: positions count emitted tokens only, so stop
// words and Subject: line boundaries do not separate words, and case does
// not matter. The benchmark's phrase oracle relies on exactly this.
func TestMatchTextAdjacency(t *testing.T) {
	stop := lexer.Options{StopWords: map[string]bool{"the": true}}
	cases := []struct {
		query, text string
		opt         lexer.Options
		want        bool
	}{
		{`"cat the dog"`, "cat the dog", stop, true},
		{`"cat the dog"`, "cat dog", stop, true},
		{`"cat dog"`, "a cat the dog", stop, true},
		{`"cat dog"`, "Subject: cat\ndog", lexer.Options{}, true},
		{`"cat dog"`, "Subject: cat\nDate: skipped line\ndog", lexer.Options{}, true},
		{`"cat dog"`, "Cat DOG", lexer.Options{}, true},
		// A ring that held the scanner's reused lowercase buffer would see
		// "DOG" twice here and match; the text has one dog.
		{`"dog dog"`, "DOG Cat", lexer.Options{}, false},
		{`"dog dog"`, "Dog DOG", lexer.Options{}, true},
		{`"cat dog"`, "cat bird dog", lexer.Options{}, false},
		{"cat near/1 dog", "Subject: CAT\n\nthe DOG", stop, true},
		{"title:cat", "Subject: Cat\ndog", lexer.Options{}, true},
		{"body:cat", "Subject: Cat\ndog", lexer.Options{}, false},
	}
	for _, c := range cases {
		check := positionalCheck(t, c.query, c.opt)
		if got := check.MatchText(c.text, c.opt); got != c.want {
			t.Errorf("%s on %q: MatchText = %v, want %v", c.query, c.text, got, c.want)
		}
		if ref := check.Match(lexer.TokenizePositions(c.text, c.opt)); ref != c.want {
			t.Errorf("%s on %q: reference Match = %v, want %v", c.query, c.text, ref, c.want)
		}
	}
}

// TestMatchTextAllocs: on lowercase text the matcher allocates nothing, for
// every kind of check, whether it matches early, late or never.
func TestMatchTextAllocs(t *testing.T) {
	text := strings.Repeat("the quick brown fox jumps over the lazy dog\n", 200) + "subject: zebra crossing"
	checks := []Check{
		{Kind: "phrase", Ordered: []string{"lazy", "dog"}},
		{Kind: "phrase", Ordered: []string{"zebra", "crossing"}},
		{Kind: "phrase", Ordered: []string{"a", "b", "c", "d", "e", "f", "g", "h"}},
		{Kind: "near", A: "fox", B: "dog", K: 3},
		{Kind: "near", A: "quick", B: "zebra", K: 2},
		{Kind: "region", Region: lexer.RegionTitle, Word: "zebra"},
		{Kind: "region", Region: lexer.RegionTitle, Word: "fox"},
	}
	for _, c := range checks {
		if a := testing.AllocsPerRun(20, func() { c.MatchText(text, lexer.Options{}) }); a != 0 {
			t.Errorf("%+v: %v allocs per MatchText, want 0", c, a)
		}
	}
}

// fuzzChecks derives one check of each kind from a fuzzed query string, so
// the checks draw their words from the same alphabet as the text.
func fuzzChecks(q string, k uint8, opt lexer.Options) []Check {
	var words []string
	for _, t := range lexer.TokenizePositions(q, opt) {
		words = append(words, t.Word)
	}
	at := func(i int) string {
		if i < len(words) {
			return words[i]
		}
		return ""
	}
	region := lexer.RegionBody
	if k%2 == 1 {
		region = lexer.RegionTitle
	}
	return []Check{
		{Kind: "phrase", Ordered: words},
		{Kind: "near", A: at(0), B: at(1), K: int(k%8) + 1},
		{Kind: "near", A: at(0), B: at(0), K: int(k%8) + 1},
		{Kind: "region", Region: region, Word: at(0)},
	}
}

// FuzzMatchText compares the streaming matcher with the reference
// Match(TokenizePositions(...)) for phrase, near and region checks, under the
// default lexer and under a minimum length plus a stop list.
func FuzzMatchText(f *testing.F) {
	f.Add("the cat sat on the mat", "cat sat", uint8(1))
	f.Add("Subject: Cat Dog\ncat the dog dog", "cat the dog", uint8(2))
	f.Add("a b a b a b c", "a b c", uint8(3))
	f.Add("dog dog dog", "dog dog", uint8(0))
	f.Add("Subject: white MOUSE\nDate: x\nmouse white", "mouse white", uint8(5))
	f.Add("café cat \xff dog", "cat dog", uint8(4))
	opts := []lexer.Options{
		{},
		{MinTokenLen: 2, StopWords: map[string]bool{"the": true, "dog": true}},
	}
	f.Fuzz(func(t *testing.T, text, q string, k uint8) {
		for _, opt := range opts {
			toks := lexer.TokenizePositions(text, opt)
			for _, c := range fuzzChecks(q, k, opt) {
				if got, want := c.MatchText(text, opt), c.Match(toks); got != want {
					t.Fatalf("%+v on %q (opt %+v): MatchText %v, reference %v", c, text, opt, got, want)
				}
			}
		}
	})
}
