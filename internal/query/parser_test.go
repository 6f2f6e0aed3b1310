package query

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestParseQueryGolden pins the unified grammar's shapes: precedence
// (or/adjacency < and < not < near/k), adjacency-as-or, every leaf kind,
// and parenthesized grouping — each via the canonical String rendering.
func TestParseQueryGolden(t *testing.T) {
	tests := []struct {
		q, want string
	}{
		// Leaves.
		{"cat", "cat"},
		{"CAT", "cat"},
		{"inver*", "inver*"},
		{`"white mouse"`, `"white mouse"`},
		{"title:mouse", "title:mouse"},
		{"body:cat", "body:cat"},
		// Adjacency is or — the bag-of-words reading.
		{"cat dog", "(cat or dog)"},
		{"cat dog mouse", "((cat or dog) or mouse)"},
		{"cat or dog", "(cat or dog)"},
		// and binds tighter than or/adjacency.
		{"cat and dog mouse", "((cat and dog) or mouse)"},
		{"cat dog and mouse", "(cat or (dog and mouse))"},
		{"cat or dog and mouse", "(cat or (dog and mouse))"},
		// not binds tighter than and.
		{"not cat and dog", "((not cat) and dog)"},
		{"cat and not dog", "(cat and (not dog))"},
		{"not not cat", "(not (not cat))"},
		// near/k binds tightest of all.
		{"cat near/3 dog", "(cat near/3 dog)"},
		{"cat near/3 dog and mouse", "((cat near/3 dog) and mouse)"},
		{"not cat near/2 dog", "(not (cat near/2 dog))"},
		// Parentheses override.
		{"(cat or dog) and mouse", "((cat or dog) and mouse)"},
		{"cat and (dog or mouse)", "(cat and (dog or mouse))"},
		// Mixed leaves compose.
		{`"white mouse" and cat*`, `("white mouse" and cat*)`},
		{`title:cat "big dog"`, `(title:cat or "big dog")`},
		{`not "white mouse" and title:cat or dog*`, `(((not "white mouse") and title:cat) or dog*)`},
		// Keywords are case-insensitive.
		{"cat AND dog OR mouse", "((cat and dog) or mouse)"},
		{"NOT cat", "(not cat)"},
		// Whitespace is free.
		{"  cat\tand\n dog ", "(cat and dog)"},
	}
	for _, tt := range tests {
		e, err := ParseQuery(tt.q)
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", tt.q, err)
			continue
		}
		if got := e.String(); got != tt.want {
			t.Errorf("ParseQuery(%q) = %q, want %q", tt.q, got, tt.want)
		}
	}
}

// TestParseQueryErrors pins the parser's rejections and their messages.
func TestParseQueryErrors(t *testing.T) {
	tests := []struct {
		q, wantSub string
	}{
		{"", "empty query"},
		{"   ", "empty query"},
		{"and", `unexpected "and"`},
		{"cat and", "unexpected end of query"},
		{"cat or", "unexpected end of query"},
		{"not", "unexpected end of query"},
		{"(cat", "missing closing parenthesis"},
		{"cat)", `unexpected ")" after expression`},
		{"()", `unexpected ")"`},
		{`"unterminated`, "unterminated quote"},
		{"cat & dog", `illegal character '&'`},
		{"cat near/x dog", "bad proximity operator"},
		{"cat near/0 dog", "proximity window 0 < 1"},
		{"cat near/2", "unexpected end of query"},
		{`"white mouse" near/2 dog`, "needs plain words on both sides"},
		{"cat near/2 (dog or mouse)", "needs plain words on both sides"},
		{"author:cat", `unknown region "author"`},
		{"title:", "bad region term"},
		{"title:ca*t", "bad region term"},
		{"*cat", "'*' is only valid at the end of a word"},
		{"c*t", "'*' is only valid at the end of a word"},
		{"cat/dog", "'/' is only valid in near/k"},
	}
	for _, tt := range tests {
		_, err := ParseQuery(tt.q)
		if err == nil {
			t.Errorf("ParseQuery(%q) succeeded, want error containing %q", tt.q, tt.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tt.wantSub) {
			t.Errorf("ParseQuery(%q) error = %q, want substring %q", tt.q, err.Error(), tt.wantSub)
		}
	}
}

// randomUnifiedExpr builds a random expression over every node kind the
// unified grammar can produce.
func randomUnifiedExpr(r *rand.Rand, depth int) Expr {
	words := []string{"cat", "dog", "mouse", "bird"}
	w := func() string { return words[r.Intn(len(words))] }
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(5) {
		case 0:
			return Word{w()}
		case 1:
			return Prefix{w()[:2]}
		case 2:
			return Phrase{Text: w() + " " + w()}
		case 3:
			return Near{A: w(), B: w(), K: r.Intn(5) + 1}
		default:
			return Region{Name: "title", W: w()}
		}
	}
	switch r.Intn(3) {
	case 0:
		return And{randomUnifiedExpr(r, depth-1), randomUnifiedExpr(r, depth-1)}
	case 1:
		return Or{randomUnifiedExpr(r, depth-1), randomUnifiedExpr(r, depth-1)}
	default:
		return Not{randomUnifiedExpr(r, depth-1)}
	}
}

// TestQuickParseQueryRoundtrip is the round-trip property over the whole
// AST: parsing a rendering yields a tree with the identical rendering.
func TestQuickParseQueryRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomUnifiedExpr(r, 4)
		e2, err := ParseQuery(e.String())
		if err != nil {
			t.Logf("ParseQuery(%q): %v", e.String(), err)
			return false
		}
		if e2.String() != e.String() {
			t.Logf("roundtrip %q -> %q", e.String(), e2.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestParseUnranked pins what Parse, the unranked entry point's parser,
// accepts: the whole language except adjacency, each accepted query parsing
// to the same tree as under ParseQuery; and what it refuses: a bag of words
// at the top level, inside parentheses, or after a positional atom.
func TestParseUnranked(t *testing.T) {
	accepted := []string{
		"cat",
		"(cat and dog) or mouse",
		"ca* and not do*",
		`"white mouse"`,
		`"white mouse" and cat`,
		"cat near/3 dog",
		"cat near/3 dog or title:mouse",
		"title:rates",
		"body:cat and not (dog or title:mouse)",
		"not cat",
		"((cat or dog) and (mouse or bird))",
	}
	for _, q := range accepted {
		e, err := Parse(q)
		if err != nil {
			t.Errorf("Parse(%q): %v", q, err)
			continue
		}
		u, err := ParseQuery(q)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", q, err)
		}
		if e.String() != u.String() {
			t.Errorf("Parse(%q) = %s, ParseQuery = %s", q, e, u)
		}
	}
	refused := []string{
		"cat dog",
		"cat dog mouse",
		"cat and dog mouse",
		"cat not dog",
		"(cat dog)",
		"mouse and (cat dog)",
		"(cat or (dog mouse))",
		`"white mouse" cat`,
		"cat near/3 dog mouse",
		"title:cat body:dog",
		"cat (dog)",
	}
	for _, q := range refused {
		if _, err := ParseQuery(q); err != nil {
			t.Fatalf("ParseQuery(%q): %v; the row must be valid as a ranked query", q, err)
		}
		_, err := Parse(q)
		if err == nil {
			t.Errorf("Parse(%q) succeeded; adjacency is refused", q)
		} else if !strings.Contains(err.Error(), "join terms with and/or") {
			t.Errorf("Parse(%q) error = %q, want the adjacency refusal", q, err)
		}
	}
}
