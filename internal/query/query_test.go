package query

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"dualindex/internal/postings"
)

// mapSource backs queries with a plain map.
type mapSource map[string][]postings.DocID

func (m mapSource) List(word string) (*postings.List, error) {
	return postings.FromDocs(m[word]), nil
}

var corpus = mapSource{
	"cat":   {1, 2, 3, 5},
	"dog":   {2, 3, 4},
	"mouse": {4, 5, 6},
	"bird":  {7},
}

func docsOf(t *testing.T, q string) []postings.DocID {
	t.Helper()
	e, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	l, err := EvalBoolean(e, corpus)
	if err != nil {
		t.Fatalf("Eval(%q): %v", q, err)
	}
	return l.Docs()
}

func TestBooleanQueries(t *testing.T) {
	tests := []struct {
		q    string
		want []postings.DocID
	}{
		{"cat", []postings.DocID{1, 2, 3, 5}},
		{"cat and dog", []postings.DocID{2, 3}},
		{"cat or dog", []postings.DocID{1, 2, 3, 4, 5}},
		{"(cat and dog) or mouse", []postings.DocID{2, 3, 4, 5, 6}},
		{"cat and dog and mouse", nil},
		{"cat and not dog", []postings.DocID{1, 5}},
		{"not dog and cat", []postings.DocID{1, 5}},
		{"cat and not (dog or mouse)", []postings.DocID{1}},
		{"cat and not not dog", []postings.DocID{2, 3}},
		{"cat or (dog and not dog)", []postings.DocID{1, 2, 3, 5}},
		{"CAT AND Dog", []postings.DocID{2, 3}}, // keywords case-insensitive
		{"unknownword", nil},
		{"cat and unknownword", nil},
		{"cat or unknownword", []postings.DocID{1, 2, 3, 5}},
		// De Morgan through the negation algebra, grounded by a positive term.
		{"(cat or dog or mouse or bird) and not (not cat and not dog)", []postings.DocID{1, 2, 3, 4, 5}},
	}
	for _, tt := range tests {
		got := docsOf(t, tt.q)
		if len(got) != len(tt.want) {
			t.Errorf("%q = %v, want %v", tt.q, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("%q = %v, want %v", tt.q, got, tt.want)
				break
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "   ", "and", "cat and", "cat or", "(cat", "cat)", "()",
		"cat dog", "cat and (dog or)", "not", "cat & dog", "ca-t",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded", q)
		}
	}
}

func TestPurelyNegativeQueriesRejected(t *testing.T) {
	for _, q := range []string{"not cat", "not cat or not dog", "not (cat and dog)"} {
		e, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		if _, err := EvalBoolean(e, corpus); err == nil {
			t.Errorf("EvalBoolean(%q) succeeded; complements cannot be enumerated", q)
		}
	}
}

func TestExprString(t *testing.T) {
	e, err := Parse("(cat and not dog) or mouse")
	if err != nil {
		t.Fatal(err)
	}
	want := "((cat and (not dog)) or mouse)"
	if e.String() != want {
		t.Errorf("String = %q, want %q", e.String(), want)
	}
}

func TestWords(t *testing.T) {
	e, _ := Parse("(cat and dog) or (mouse and cat)")
	got := Words(e)
	want := []string{"cat", "dog", "mouse"}
	if len(got) != len(want) {
		t.Fatalf("Words = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Words = %v, want %v", got, want)
		}
	}
}

// naive evaluates a query by brute force over a universe of documents.
func naive(e Expr, src mapSource, universe []postings.DocID) map[postings.DocID]bool {
	switch e := e.(type) {
	case Word:
		out := map[postings.DocID]bool{}
		for _, d := range src[e.W] {
			out[d] = true
		}
		return out
	case Not:
		in := naive(e.E, src, universe)
		out := map[postings.DocID]bool{}
		for _, d := range universe {
			if !in[d] {
				out[d] = true
			}
		}
		return out
	case And:
		l, r := naive(e.L, src, universe), naive(e.R, src, universe)
		out := map[postings.DocID]bool{}
		for d := range l {
			if r[d] {
				out[d] = true
			}
		}
		return out
	case Or:
		l, r := naive(e.L, src, universe), naive(e.R, src, universe)
		for d := range r {
			l[d] = true
		}
		return l
	}
	return nil
}

// randomExpr builds a random expression over a small vocabulary.
func randomExpr(r *rand.Rand, depth int) Expr {
	words := []string{"a", "b", "c", "d"}
	if depth == 0 || r.Intn(3) == 0 {
		return Word{words[r.Intn(len(words))]}
	}
	switch r.Intn(3) {
	case 0:
		return And{randomExpr(r, depth-1), randomExpr(r, depth-1)}
	case 1:
		return Or{randomExpr(r, depth-1), randomExpr(r, depth-1)}
	default:
		return Not{randomExpr(r, depth-1)}
	}
}

func TestQuickBooleanMatchesNaive(t *testing.T) {
	universe := make([]postings.DocID, 30)
	for i := range universe {
		universe[i] = postings.DocID(i + 1)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := mapSource{}
		for _, w := range []string{"a", "b", "c", "d"} {
			var docs []postings.DocID
			for _, d := range universe {
				if r.Intn(2) == 0 {
					docs = append(docs, d)
				}
			}
			src[w] = docs
		}
		e := randomExpr(r, 4)
		got, err := EvalBoolean(e, src)
		if err != nil {
			// Purely negative answers are legitimately rejected; verify the
			// naive answer really is a complement-like superset.
			return true
		}
		want := naive(e, src, universe)
		if got.Len() != len(want) {
			return false
		}
		for _, d := range got.Docs() {
			if !want[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParseRoundtrip(t *testing.T) {
	// Parsing an expression's String renders an equivalent expression.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 3)
		e2, err := Parse(e.String())
		if err != nil {
			return false
		}
		return e2.String() == e.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalVector(t *testing.T) {
	q := []string{"cat", "mouse"}
	matches, err := EvalVector(q, corpus, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 6 {
		t.Fatalf("matches = %v", matches)
	}
	// Doc 5 contains both words and must rank first.
	if matches[0].Doc != 5 {
		t.Errorf("top doc = %d, want 5", matches[0].Doc)
	}
	// Bird-only doc 7 matches nothing.
	for _, m := range matches {
		if m.Doc == 7 {
			t.Error("doc 7 scored without containing a query word")
		}
	}
	// Rarer words carry higher idf: "bird" (1 doc) outweighs "cat" (4 docs).
	q2 := []string{"bird", "cat"}
	m2, err := EvalVector(q2, corpus, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m2[0].Doc != 7 {
		t.Errorf("idf ranking wrong: %v", m2)
	}
}

func TestEvalVectorTopK(t *testing.T) {
	q := []string{"cat", "dog", "mouse"}
	m, err := EvalVector(q, corpus, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Fatalf("k=2 returned %d", len(m))
	}
	if m0, _ := EvalVector(q, corpus, 7, 0); m0 != nil {
		t.Error("k=0 returned matches")
	}
	if me, _ := EvalVector(nil, corpus, 7, 5); me != nil {
		t.Error("empty query returned matches")
	}
}

func TestEvalVectorDeterministicTies(t *testing.T) {
	// Docs 1 and 3 both contain only "cat": equal scores, ascending id order.
	q := []string{"cat"}
	m, err := EvalVector(q, corpus, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(m); i++ {
		if m[i-1].Score == m[i].Score && m[i-1].Doc > m[i].Doc {
			t.Fatalf("tie order wrong: %v", m)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	q := strings.Repeat("(cat and dog) or ", 20) + "mouse"
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalBoolean(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	src := mapSource{}
	for _, w := range []string{"cat", "dog", "mouse"} {
		var docs []postings.DocID
		for d := postings.DocID(1); d < 100_000; d += postings.DocID(r.Intn(5) + 1) {
			docs = append(docs, d)
		}
		src[w] = docs
	}
	e, _ := Parse("(cat and dog) or mouse")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalBoolean(e, src); err != nil {
			b.Fatal(err)
		}
	}
}

// prefixSource wraps mapSource with vocabulary enumeration.
type prefixSource struct{ mapSource }

func (p prefixSource) WordsWithPrefix(prefix string) []string {
	var out []string
	for w := range p.mapSource {
		if strings.HasPrefix(w, prefix) {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}

func TestPrefixQueries(t *testing.T) {
	src := prefixSource{corpus}
	eval := func(q string) []postings.DocID {
		t.Helper()
		e, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		l, err := EvalBoolean(e, src)
		if err != nil {
			t.Fatalf("Eval(%q): %v", q, err)
		}
		return l.Docs()
	}
	// "ca*" matches only "cat"; "c*" likewise (no other c-words).
	got := eval("ca*")
	if fmt.Sprint(got) != fmt.Sprint([]postings.DocID{1, 2, 3, 5}) {
		t.Fatalf("ca* = %v", got)
	}
	// Prefix union: "mo*" ∪ "bird" covers mouse and bird docs.
	got = eval("mo* or bird")
	if fmt.Sprint(got) != fmt.Sprint([]postings.DocID{4, 5, 6, 7}) {
		t.Fatalf("mo* or bird = %v", got)
	}
	// Prefix matching nothing yields nothing.
	if got := eval("zz*"); len(got) != 0 {
		t.Fatalf("zz* = %v", got)
	}
	// Prefix composes with negation.
	got = eval("ca* and not do*")
	if fmt.Sprint(got) != fmt.Sprint([]postings.DocID{1, 5}) {
		t.Fatalf("ca* and not do* = %v", got)
	}
}

func TestPrefixParseErrors(t *testing.T) {
	for _, q := range []string{"*", "*cat", "c*t", "cat**"} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded", q)
		}
	}
}

func TestPrefixRequiresPrefixSource(t *testing.T) {
	e, err := Parse("ca*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvalBoolean(e, corpus); err == nil {
		t.Fatal("plain source evaluated a truncation query")
	}
}

func TestPrefixString(t *testing.T) {
	e, err := Parse("ca* and dog")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(ca* and dog)" {
		t.Fatalf("String = %q", e.String())
	}
	ws := Words(e)
	if len(ws) != 2 || ws[0] != "ca*" || ws[1] != "dog" {
		t.Fatalf("Words = %v", ws)
	}
}
