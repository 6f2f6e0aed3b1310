package query

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dualindex/internal/lexer"
	"dualindex/internal/postings"
)

func TestEffectiveCollectionSize(t *testing.T) {
	tests := []struct{ in, want int }{
		{-5, 1}, {-1, 1}, {0, 1}, {1, 1}, {2, 2}, {1000, 1000},
	}
	for _, tt := range tests {
		if got := EffectiveCollectionSize(tt.in); got != tt.want {
			t.Errorf("EffectiveCollectionSize(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
	// The guard keeps both models finite on an empty collection.
	scores := map[postings.DocID]float64{}
	list := postings.FromDocs([]postings.DocID{1, 2})
	for _, mode := range []string{ScoringVector, ScoringBM25} {
		clear(scores)
		scoreList(scores, list, 1, mode, EffectiveCollectionSize(0))
		for d, s := range scores {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				t.Errorf("%s: empty-collection score for doc %d = %v", mode, d, s)
			}
		}
	}
}

func TestParseScoring(t *testing.T) {
	for in, want := range map[string]string{
		"": ScoringVector, "vector": ScoringVector, "bm25": ScoringBM25,
	} {
		got, err := ParseScoring(in)
		if err != nil || got != want {
			t.Errorf("ParseScoring(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParseScoring("pagerank"); err == nil {
		t.Error("ParseScoring accepted an unknown mode")
	}
}

// TestPlanFetchAndShape pins the plan's static structure: fetch terms in
// first-appearance order (prefixes starred, positional prune lists absent,
// so they stream lazily), bag detection, and NeedsDocs propagation.
func TestPlanFetchAndShape(t *testing.T) {
	mustParse := func(q string) Expr {
		t.Helper()
		e, err := ParseQuery(q)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", q, err)
		}
		return e
	}
	mustPlan := func(q string, po PlanOptions) *Plan {
		t.Helper()
		pl, err := NewPlan(mustParse(q), po)
		if err != nil {
			t.Fatalf("NewPlan(%q): %v", q, err)
		}
		return pl
	}

	pl := mustPlan(`cat and do* or "white mouse" and cat`, PlanOptions{})
	if got, want := fmt.Sprint(pl.Fetch), "[cat do*]"; got != want {
		t.Errorf("Fetch = %v, want %v", got, want)
	}
	if !pl.NeedsDocs {
		t.Error("phrase plan does not report NeedsDocs")
	}
	if pl.Score != nil {
		t.Error("match-only plan has a ScorePlan")
	}

	// A bare word list under a scoring mode is a bag: no matching structure.
	bag := mustPlan("cat dog mouse", PlanOptions{Scoring: ScoringVector, K: 5})
	if bag.Root != nil {
		t.Errorf("bag plan has Root %T", bag.Root)
	}
	if bag.Score == nil || len(bag.Score.Terms) != 3 {
		t.Errorf("bag ScorePlan = %+v", bag.Score)
	}
	// The same query unscored must keep its Or structure to report matches.
	if pl := mustPlan("cat dog mouse", PlanOptions{}); pl.Root == nil {
		t.Error("match-only bag lost its matching structure")
	}
	// Any non-Word leaf breaks the bag shape.
	if pl := mustPlan("cat do*", PlanOptions{Scoring: ScoringVector, K: 5}); pl.Root == nil {
		t.Error("prefix query planned as pure bag")
	}

	// Scoring terms come from positive-context leaves only.
	ranked := mustPlan(`cat and not dog or "white mouse"`, PlanOptions{Scoring: ScoringBM25, K: 5})
	terms := ranked.Score.Terms
	for _, want := range []string{"cat", "white", "mouse"} {
		if _, ok := terms[want]; !ok {
			t.Errorf("scoring terms missing %q: %v", want, terms)
		}
	}
	if _, ok := terms["dog"]; ok {
		t.Errorf("negated term scored: %v", terms)
	}

	// Boolean-only structure does not need documents.
	if pl := mustPlan("cat and not do*", PlanOptions{}); pl.NeedsDocs {
		t.Error("boolean plan reports NeedsDocs")
	}
}

// TestPlanComplementRejected: the planner resolves the negation algebra
// structurally, so a complement-valued query fails at plan time with the
// same condition the reference EvalBoolean reports at evaluation time.
func TestPlanComplementRejected(t *testing.T) {
	for _, q := range []string{"not cat", "not cat or not dog", "not (cat and dog)"} {
		e, err := ParseQuery(q)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", q, err)
		}
		if _, err := NewPlan(e, PlanOptions{}); err == nil {
			t.Errorf("NewPlan(%q) succeeded; complements cannot be enumerated", q)
		}
	}
}

func TestPlanPositionalValidation(t *testing.T) {
	tests := []struct {
		e       Expr
		wantSub string
	}{
		{Phrase{Text: "...!?"}, "empty phrase"},
		{Near{A: "cat", B: "dog", K: 0}, "proximity window 0 < 1"},
		{Near{A: "", B: "dog", K: 2}, "bad proximity words"},
		{Near{A: "two words", B: "dog", K: 2}, "bad proximity words"},
		{Region{Name: "author", W: "cat"}, `unknown region "author"`},
		{Region{Name: "title", W: ""}, "bad region word"},
	}
	for _, tt := range tests {
		if _, err := NewPlan(tt.e, PlanOptions{}); err == nil || !strings.Contains(err.Error(), tt.wantSub) {
			t.Errorf("NewPlan(%s) error = %v, want substring %q", tt.e, err, tt.wantSub)
		}
	}
}

// TestQuickPlanMatchesEvalBoolean: for every legacy boolean expression, the
// plan-and-execute pipeline returns exactly EvalBoolean's answer (or both
// reject the query as a complement).
func TestQuickPlanMatchesEvalBoolean(t *testing.T) {
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
		want, wantErr := EvalBoolean(e, src)
		pl, planErr := NewPlan(e, PlanOptions{})
		if wantErr != nil || planErr != nil {
			// Complement rejection must agree between the two paths.
			return (wantErr != nil) == (planErr != nil)
		}
		got, err := ExecuteMatch(pl, Exec{Src: src})
		if err != nil {
			t.Logf("ExecuteMatch(%q): %v", e, err)
			return false
		}
		return fmt.Sprint(got.Docs()) == fmt.Sprint(want.Docs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRankedBagMatchesEvalVector: a pure bag plan scores byte-identically
// with the reference vector evaluator under the vector model.
func TestRankedBagMatchesEvalVector(t *testing.T) {
	words := []string{"cat", "dog", "mouse", "bird", "cat"}
	want, err := EvalVector(FromDocument(words), corpus, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewRankedBag(words, ScoringVector, 10)
	got, err := ExecuteRanked(pl, Exec{Src: corpus, Total: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score {
			t.Fatalf("match %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	// The parsed bag shape agrees too.
	e, err := ParseQuery("cat dog mouse bird")
	if err != nil {
		t.Fatal(err)
	}
	pl2, err := NewPlan(e, PlanOptions{Scoring: ScoringVector, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ExecuteRanked(pl2, Exec{Src: corpus, Total: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got2 {
		if got2[i] != want[i] {
			t.Fatalf("parsed bag diverges at %d: %+v vs %+v", i, got2[i], want[i])
		}
	}
}

// TestBM25Scoring: BM25 ranks like an idf-weighted model (rare words
// dominate), stays finite, and differs from the vector model only in
// scores, not in which documents can match.
func TestBM25Scoring(t *testing.T) {
	pl := NewRankedBag([]string{"bird", "cat"}, ScoringBM25, 10)
	got, err := ExecuteRanked(pl, Exec{Src: corpus, Total: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("matches = %v", got)
	}
	// "bird" (df 1) outweighs "cat" (df 4): doc 7 ranks first.
	if got[0].Doc != 7 {
		t.Errorf("top doc = %d, want 7", got[0].Doc)
	}
	for _, m := range got {
		if math.IsNaN(m.Score) || math.IsInf(m.Score, 0) || m.Score <= 0 {
			t.Errorf("doc %d score = %v", m.Doc, m.Score)
		}
	}
	// Same candidates as the vector model.
	vec, err := ExecuteRanked(NewRankedBag([]string{"bird", "cat"}, ScoringVector, 10), Exec{Src: corpus, Total: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != len(got) {
		t.Errorf("models disagree on candidates: %d vs %d", len(vec), len(got))
	}
}

// TestExecuteRankedStructured: a ranked plan with boolean structure scores
// only the matching documents, ordered by score.
func TestExecuteRankedStructured(t *testing.T) {
	e, err := ParseQuery("cat and dog or bird")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlan(e, PlanOptions{Scoring: ScoringVector, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExecuteRanked(pl, Exec{Src: corpus, Total: 7})
	if err != nil {
		t.Fatal(err)
	}
	// (cat∧dog)∪bird = {2,3,7}, ordered by score (docs 2 and 3 carry both
	// "cat" and "dog" and outrank bird-only doc 7; the tie breaks by id).
	if len(got) != 3 || got[0].Doc != 2 || got[1].Doc != 3 || got[2].Doc != 7 {
		t.Fatalf("matches = %v", got)
	}
	if got[0].Score != got[1].Score || got[1].Score <= got[2].Score {
		t.Errorf("score order wrong: %v", got)
	}
	// k truncates.
	pl.Score.K = 1
	if got, _ := ExecuteRanked(pl, Exec{Src: corpus, Total: 7}); len(got) != 1 {
		t.Errorf("k=1 returned %v", got)
	}
}

// countingSource counts List calls, for pinning the lazy prune order.
type countingSource struct {
	mapSource
	calls []string
}

func (c *countingSource) List(word string) (*postings.List, error) {
	c.calls = append(c.calls, word)
	return c.mapSource.List(word)
}

// docVerifier is a test VerifyFunc over an in-memory document map.
type docVerifier struct {
	docs   map[postings.DocID]string
	called bool
}

func (v *docVerifier) verify(cands []postings.DocID, match func([]lexer.Token) bool) ([]postings.DocID, error) {
	v.called = true
	var out []postings.DocID
	for _, d := range cands {
		if match(lexer.TokenizePositions(v.docs[d], lexer.Options{})) {
			out = append(out, d)
		}
	}
	return out, nil
}

// TestVerifyStepExecution drives phrase, proximity and region plans through
// the executor against stored text.
func TestVerifyStepExecution(t *testing.T) {
	docs := map[postings.DocID]string{
		1: "Subject: white mouse\nthe cat sat",
		2: "white cat and brown mouse",
		3: "mouse white",
	}
	src := mapSource{
		"white": {1, 2, 3},
		"mouse": {1, 2, 3},
		"cat":   {1, 2},
		"brown": {2},
	}
	v := &docVerifier{docs: docs}
	run := func(q string) []postings.DocID {
		t.Helper()
		e, err := ParseQuery(q)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", q, err)
		}
		pl, err := NewPlan(e, PlanOptions{})
		if err != nil {
			t.Fatalf("NewPlan(%q): %v", q, err)
		}
		l, err := ExecuteMatch(pl, Exec{Src: src, Verify: v.verify})
		if err != nil {
			t.Fatalf("ExecuteMatch(%q): %v", q, err)
		}
		return l.Docs()
	}
	if got := run(`"white mouse"`); fmt.Sprint(got) != fmt.Sprint([]postings.DocID{1}) {
		t.Errorf(`"white mouse" = %v, want [1]`, got)
	}
	if got := run("white near/2 mouse"); fmt.Sprint(got) != fmt.Sprint([]postings.DocID{1, 3}) {
		t.Errorf("white near/2 mouse = %v, want [1 3]", got)
	}
	if got := run("title:mouse"); fmt.Sprint(got) != fmt.Sprint([]postings.DocID{1}) {
		t.Errorf("title:mouse = %v, want [1]", got)
	}
	// Positional leaves compose with the set algebra.
	if got := run(`"white mouse" or brown`); fmt.Sprint(got) != fmt.Sprint([]postings.DocID{1, 2}) {
		t.Errorf(`"white mouse" or brown = %v, want [1 2]`, got)
	}
	if got := run(`cat and not "white mouse"`); fmt.Sprint(got) != fmt.Sprint([]postings.DocID{2}) {
		t.Errorf(`cat and not "white mouse" = %v, want [2]`, got)
	}
}

// TestVerifyStepLazyPrune: prune lists fetch serially and stop at the first
// empty intersection — the verifier never runs, and later lists are never
// read. The phrase's prune set is its sorted word set, so "aardvark" (no
// documents) is read first and "cat"/"dog" are never fetched.
func TestVerifyStepLazyPrune(t *testing.T) {
	src := &countingSource{mapSource: mapSource{"cat": {1}, "dog": {1}}}
	v := &docVerifier{docs: map[postings.DocID]string{}}
	e, err := ParseQuery(`"cat aardvark dog"`)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlan(e, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := ExecuteMatch(pl, Exec{Src: src, Verify: v.verify})
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Fatalf("matches = %v", l.Docs())
	}
	if v.called {
		t.Error("verifier ran despite an empty candidate intersection")
	}
	if fmt.Sprint(src.calls) != "[aardvark]" {
		t.Errorf("prune fetched %v, want the early exit after [aardvark]", src.calls)
	}
}

// TestExecuteMatchNeedsVerifier: a plan with a positional step and no
// VerifyFunc is rejected.
func TestExecuteMatchNeedsVerifier(t *testing.T) {
	// "cat dog" has a non-empty candidate intersection in the corpus, so
	// execution must reach (and reject) the missing verifier.
	e, _ := ParseQuery(`"cat dog"`)
	pl, err := NewPlan(e, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteMatch(pl, Exec{Src: corpus}); err == nil {
		t.Fatal("positional plan executed without stored documents")
	}
}

// TestExecuteRankedPrefixTerms: a "p*" scoring term expands through the
// vocabulary; a source that cannot expand rejects it.
func TestExecuteRankedPrefixTerms(t *testing.T) {
	e, err := ParseQuery("mo* bird")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlan(e, PlanOptions{Scoring: ScoringVector, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExecuteRanked(pl, Exec{Src: prefixSource{corpus}, Total: 7})
	if err != nil {
		t.Fatal(err)
	}
	// mo* expands to mouse: docs {4,5,6} ∪ bird's {7}.
	if len(got) != 4 {
		t.Fatalf("matches = %v", got)
	}
	if _, err := ExecuteRanked(pl, Exec{Src: corpus, Total: 7}); err == nil {
		t.Fatal("plain source executed a truncation scoring term")
	}
}

// TestExecuteRankedEdgeCases: k<=0 and empty term sets return nothing; a
// zero collection size stays finite via EffectiveCollectionSize.
func TestExecuteRankedEdgeCases(t *testing.T) {
	if got, err := ExecuteRanked(NewRankedBag([]string{"cat"}, ScoringVector, 0), Exec{Src: corpus, Total: 7}); err != nil || got != nil {
		t.Errorf("k=0: %v, %v", got, err)
	}
	if got, err := ExecuteRanked(NewRankedBag(nil, ScoringVector, 5), Exec{Src: corpus, Total: 7}); err != nil || got != nil {
		t.Errorf("empty bag: %v, %v", got, err)
	}
	got, err := ExecuteRanked(NewRankedBag([]string{"cat"}, ScoringBM25, 5), Exec{Src: corpus, Total: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range got {
		if math.IsNaN(m.Score) || math.IsInf(m.Score, 0) {
			t.Errorf("zero-total score: %+v", m)
		}
	}
}
