package query

import (
	"testing"

	"dualindex/internal/lexer"
)

// FuzzParseQuery fuzzes the query parser. The invariants: never panic;
// whatever Parse accepts, ParseQuery accepts with the same tree; on success,
// the rendering re-parses to an identical rendering (the canonical round
// trip), and the planner lowers the tree without panicking, match-only and
// ranked. The seed corpus covers every token kind and the
// error shapes; `make check` gives this a short live burst and CI runs it
// longer.
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		"cat",
		"cat dog mouse",
		"(cat and dog) or mouse",
		"cat and not (dog or mo*)",
		`"white mouse" and cat`,
		"cat near/3 dog and title:mouse",
		"body:cat or not dog*",
		`not "a b c" near/2`,
		"((((cat))))",
		`"unterminated`,
		"near/0",
		"title:",
		"a*b:c/d",
		"  ",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, q string) {
		e, err := ParseQuery(q)
		if u, uerr := Parse(q); uerr == nil && (err != nil || u.String() != e.String()) {
			t.Fatalf("Parse(%q) = %s but ParseQuery = %v, %v", q, u, e, err)
		}
		if err != nil {
			return
		}
		// Round trip: the canonical rendering is a fixed point.
		r := e.String()
		e2, err := ParseQuery(r)
		if err != nil {
			t.Fatalf("rendering %q of %q does not re-parse: %v", r, q, err)
		}
		if got := e2.String(); got != r {
			t.Fatalf("roundtrip %q: %q -> %q", q, r, got)
		}
		// Planning any parseable query must not panic — match-only and
		// ranked. Plan errors (complements, degenerate positional
		// leaves) are legitimate outcomes.
		for _, po := range []PlanOptions{
			{Lexer: lexer.Options{}},
			{Scoring: ScoringVector, K: 10},
		} {
			if pl, err := NewPlan(e, po); err == nil && pl == nil {
				t.Fatal("NewPlan returned nil plan and nil error")
			}
		}
	})
}
