package query

import (
	"fmt"

	"dualindex/internal/lexer"
)

// The planner: lowers one query AST into a Plan a shard can execute without
// re-walking the tree. Planning happens once per query, on the engine;
// execution happens once per shard, against that shard's Source. The plan's
// set-operation steps are the boolean negation algebra resolved
// structurally — it depends only on the AST's shape, never on list
// contents — and a ranked plan carries its scoring terms for the executor's
// cursors.

// PlanOptions parameterize lowering.
type PlanOptions struct {
	// Lexer is the engine's tokenizer configuration; phrase text and
	// proximity/region words normalize through it so queries match exactly
	// what indexing saw.
	Lexer lexer.Options
	// Scoring selects the ranking model (ScoringVector or ScoringBM25) for a
	// ranked plan. Empty means a match-only plan: the executor returns the
	// matching documents unscored, the boolean/positional entry points'
	// contract.
	Scoring string
	// K is the result budget of a ranked plan; ignored when Scoring is
	// empty.
	K int
}

// A Plan is the shard-executable form of a query.
type Plan struct {
	// Fetch lists the dictionary terms to prefetch before evaluation, in
	// first-appearance order; terms ending in '*' are truncations to expand
	// through the vocabulary. Positional prune lists are deliberately absent:
	// they stream lazily at verification time so an empty candidate
	// intersection stops reading early (see VerifyStep).
	Fetch []string
	// Root is the matching structure. A nil Root with a Score means a pure
	// ranked bag: every document containing any scoring term matches.
	Root Step
	// Score, when non-nil, ranks the matches; nil returns them unscored.
	Score *ScorePlan
	// NeedsDocs reports whether execution requires stored document text
	// (some step verifies positions).
	NeedsDocs bool
}

// ScorePlan is the ranking half of a plan.
type ScorePlan struct {
	Mode  string             // ScoringVector or ScoringBM25
	Terms map[string]float64 // scoring term → query weight; "p*" entries expand
	K     int                // result budget
}

// errComplement rejects queries whose answer would be the complement of a
// list: an inverted index cannot enumerate it.
var errComplement = fmt.Errorf("query: answer is a complement; add a positive term")

// A Step is one node of the executable matching structure. Each evaluates to
// a sorted list of matching documents.
type Step interface {
	step()
}

type (
	// FetchStep reads one word's inverted list.
	FetchStep struct{ Word string }
	// PrefixStep unions the lists of every vocabulary word with the prefix.
	PrefixStep struct{ Prefix string }
	// IntersectStep, UnionStep and DiffStep are the set operations;
	// DiffStep is L minus R.
	IntersectStep struct{ L, R Step }
	UnionStep     struct{ L, R Step }
	DiffStep      struct{ L, R Step }
	// VerifyStep is the candidate-verification form of a positional leaf:
	// intersect the prune words' lists (fetched serially, stopping at the
	// first empty intersection), then keep candidates whose stored text
	// satisfies Check.
	VerifyStep struct {
		Prune []string
		Check Check
	}
)

func (FetchStep) step()     {}
func (PrefixStep) step()    {}
func (IntersectStep) step() {}
func (UnionStep) step()     {}
func (DiffStep) step()      {}
func (VerifyStep) step()    {}

// Check is a positional condition on one document's token sequence. It is a
// plain value (not a closure) so plans stay inspectable and shareable across
// shards.
type Check struct {
	Kind    string   // "phrase", "near" or "region"
	Ordered []string // phrase: words in order, with duplicates
	A, B    string   // near: the two words
	K       int      // near: the window
	Region  string   // region: the region name
	Word    string   // region: the word
}

// Match reports whether one document's positional tokens satisfy the check.
// Safe for concurrent use (it only reads).
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

// NewPlan lowers an expression into a plan. Planning validates everything
// that does not need a source: scoring mode, positional-leaf wellformedness,
// and the negation algebra (a query whose answer is a complement is
// rejected here).
func NewPlan(e Expr, po PlanOptions) (*Plan, error) {
	mode := ""
	if po.Scoring != "" {
		var err error
		mode, err = ParseScoring(po.Scoring)
		if err != nil {
			return nil, err
		}
	}
	pl := &Plan{Fetch: Words(e)}
	if mode != "" {
		terms := make(map[string]float64)
		if err := collectScoreTerms(e, false, po, terms); err != nil {
			return nil, err
		}
		pl.Score = &ScorePlan{Mode: mode, Terms: terms, K: po.K}
	}
	if pl.Score != nil && isBag(e) {
		// A pure bag of words — the classic ranked query. No matching
		// structure: every document containing any term is scored.
		return pl, nil
	}
	root, negated, err := lowerStep(e, po)
	if err != nil {
		return nil, err
	}
	if negated {
		return nil, errComplement
	}
	pl.Root = root
	pl.NeedsDocs = stepNeedsDocs(root)
	return pl, nil
}

// NewRankedBag builds the plan of a weighted bag of words directly — the
// vector entry point's fast path, which has no expression to lower. words
// may repeat; each distinct word scores with weight 1 (abstracts-style
// indexes drop duplicate tokens, so a query document's term frequency is 1).
func NewRankedBag(words []string, mode string, k int) *Plan {
	terms := make(map[string]float64, len(words))
	fetch := make([]string, 0, len(words))
	for _, w := range words {
		if _, ok := terms[w]; !ok {
			fetch = append(fetch, w)
		}
		terms[w] = 1
	}
	return &Plan{
		Fetch: fetch,
		Score: &ScorePlan{Mode: mode, Terms: terms, K: k},
	}
}

// isBag reports whether e is an Or-tree over Word leaves only — the shape
// the unified grammar gives a bare term list ("incremental inverted lists").
func isBag(e Expr) bool {
	switch e := e.(type) {
	case Word:
		return true
	case Or:
		return isBag(e.L) && isBag(e.R)
	}
	return false
}

// collectScoreTerms gathers the scoring terms of a ranked plan: every leaf
// term in a positive context, weight 1. Terms under a negation do not score
// — they only exclude. Phrase leaves contribute their distinct words (a
// document matching the phrase necessarily contains them), prefixes
// contribute a "p*" entry for the executor to expand.
func collectScoreTerms(e Expr, neg bool, po PlanOptions, terms map[string]float64) error {
	switch e := e.(type) {
	case Word:
		if !neg {
			terms[e.W] = 1
		}
	case Prefix:
		if !neg {
			terms[e.P+"*"] = 1
		}
	case Phrase:
		if !neg {
			for _, w := range lexer.Tokenize(e.Text, po.Lexer) {
				terms[w] = 1
			}
		}
	case Near:
		if !neg {
			if a := normalizeQueryWord(e.A, po.Lexer); a != "" {
				terms[a] = 1
			}
			if b := normalizeQueryWord(e.B, po.Lexer); b != "" {
				terms[b] = 1
			}
		}
	case Region:
		if !neg {
			if w := normalizeQueryWord(e.W, po.Lexer); w != "" {
				terms[w] = 1
			}
		}
	case And:
		if err := collectScoreTerms(e.L, neg, po, terms); err != nil {
			return err
		}
		return collectScoreTerms(e.R, neg, po, terms)
	case Or:
		if err := collectScoreTerms(e.L, neg, po, terms); err != nil {
			return err
		}
		return collectScoreTerms(e.R, neg, po, terms)
	case Not:
		return collectScoreTerms(e.E, !neg, po, terms)
	default:
		return fmt.Errorf("query: unknown expression %T", e)
	}
	return nil
}

// lowerStep lowers one expression node, tracking negation structurally: the
// four-case And/Or algebra of negated and plain operands, decided from the
// tree's shape alone.
func lowerStep(e Expr, po PlanOptions) (Step, bool, error) {
	switch e := e.(type) {
	case Word:
		return FetchStep{Word: e.W}, false, nil
	case Prefix:
		return PrefixStep{Prefix: e.P}, false, nil
	case Phrase:
		st, err := lowerPhrase(e, po)
		return st, false, err
	case Near:
		st, err := lowerNear(e, po)
		return st, false, err
	case Region:
		st, err := lowerRegion(e, po)
		return st, false, err
	case Not:
		st, neg, err := lowerStep(e.E, po)
		return st, !neg, err
	case And:
		l, ln, err := lowerStep(e.L, po)
		if err != nil {
			return nil, false, err
		}
		r, rn, err := lowerStep(e.R, po)
		if err != nil {
			return nil, false, err
		}
		switch {
		case !ln && !rn:
			return IntersectStep{L: l, R: r}, false, nil
		case !ln && rn:
			return DiffStep{L: l, R: r}, false, nil
		case ln && !rn:
			return DiffStep{L: r, R: l}, false, nil
		default: // ¬a ∧ ¬b = ¬(a ∪ b)
			return UnionStep{L: l, R: r}, true, nil
		}
	case Or:
		l, ln, err := lowerStep(e.L, po)
		if err != nil {
			return nil, false, err
		}
		r, rn, err := lowerStep(e.R, po)
		if err != nil {
			return nil, false, err
		}
		switch {
		case !ln && !rn:
			return UnionStep{L: l, R: r}, false, nil
		case !ln && rn: // a ∨ ¬b = ¬(b − a)
			return DiffStep{L: r, R: l}, true, nil
		case ln && !rn:
			return DiffStep{L: l, R: r}, true, nil
		default: // ¬a ∨ ¬b = ¬(a ∩ b)
			return IntersectStep{L: l, R: r}, true, nil
		}
	}
	return nil, false, fmt.Errorf("query: unknown expression %T", e)
}

func lowerPhrase(e Phrase, po PlanOptions) (Step, error) {
	words := lexer.Tokenize(e.Text, po.Lexer)
	if len(words) == 0 {
		return nil, fmt.Errorf("query: empty phrase")
	}
	toks := lexer.TokenizePositions(e.Text, po.Lexer)
	ordered := make([]string, len(toks))
	for i, t := range toks {
		ordered[i] = t.Word
	}
	return VerifyStep{
		Prune: words,
		Check: Check{Kind: "phrase", Ordered: ordered},
	}, nil
}

func lowerNear(e Near, po PlanOptions) (Step, error) {
	if e.K < 1 {
		return nil, fmt.Errorf("query: proximity window %d < 1", e.K)
	}
	a, b := normalizeQueryWord(e.A, po.Lexer), normalizeQueryWord(e.B, po.Lexer)
	if a == "" || b == "" {
		return nil, fmt.Errorf("query: bad proximity words %q, %q", e.A, e.B)
	}
	return VerifyStep{
		Prune: []string{a, b},
		Check: Check{Kind: "near", A: a, B: b, K: e.K},
	}, nil
}

func lowerRegion(e Region, po PlanOptions) (Step, error) {
	if e.Name != lexer.RegionTitle && e.Name != lexer.RegionBody {
		return nil, fmt.Errorf("query: unknown region %q", e.Name)
	}
	w := normalizeQueryWord(e.W, po.Lexer)
	if w == "" {
		return nil, fmt.Errorf("query: bad region word %q", e.W)
	}
	return VerifyStep{
		Prune: []string{w},
		Check: Check{Kind: "region", Region: e.Name, Word: w},
	}, nil
}

// normalizeQueryWord runs one query word through the engine's lexer; a word
// that does not survive as exactly one token is rejected (empty result).
func normalizeQueryWord(w string, opt lexer.Options) string {
	ws := lexer.Tokenize(w, opt)
	if len(ws) != 1 {
		return ""
	}
	return ws[0]
}

func stepNeedsDocs(st Step) bool {
	switch st := st.(type) {
	case VerifyStep:
		return true
	case IntersectStep:
		return stepNeedsDocs(st.L) || stepNeedsDocs(st.R)
	case UnionStep:
		return stepNeedsDocs(st.L) || stepNeedsDocs(st.R)
	case DiffStep:
		return stepNeedsDocs(st.L) || stepNeedsDocs(st.R)
	}
	return false
}

// containsPhrase reports whether the token sequence contains the words at
// consecutive positions. Position gaps (from dropped stop words or region
// boundaries) break adjacency, as they should.
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
