package query

import (
	"fmt"
	"slices"

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
	// Scoring is ScoringVector for a ranked plan. Empty means a match-only
	// plan: the executor returns the matching documents unscored, the
	// boolean/positional entry points' contract. Any other value is refused.
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
	Terms []string // scoring terms, sorted and distinct; "p*" entries expand
	K     int      // result budget
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

// MatchText reports whether a document's text satisfies the check, streaming
// its positional tokens (lexer.ScanPositions under opt, the engine's lexer
// configuration) and stopping at the first token that decides it. Positions
// count emitted tokens only: a dropped stop word or a region boundary
// between two words leaves them adjacent. Safe for concurrent use (it only
// reads c).
func (c Check) MatchText(text string, opt lexer.Options) bool {
	switch c.Kind {
	case "phrase":
		return matchPhrase(text, opt, c.Ordered)
	case "near":
		return matchNear(text, opt, c.A, c.B, c.K)
	case "region":
		found := false
		lexer.ScanPositions(text, opt, func(w string, title bool) bool {
			region := lexer.RegionBody
			if title {
				region = lexer.RegionTitle
			}
			found = w == c.Word && region == c.Region
			return !found
		})
		return found
	}
	return false
}

// matchPhrase reports whether words occur at consecutive positions. It keeps
// a ring of the last len(words) tokens, each held as the index of the first
// phrase word equal to it (-1 for none) rather than as the word itself,
// which may alias the scanner's reused buffer.
func matchPhrase(text string, opt lexer.Options, words []string) bool {
	n := len(words)
	if n == 0 {
		return false
	}
	var small [16]int // want and ring of phrases up to 8 words
	var want, ring []int
	if 2*n <= len(small) {
		want, ring = small[:n], small[n:2*n]
	} else {
		s := make([]int, 2*n)
		want, ring = s[:n], s[n:]
	}
	for i, w := range words {
		want[i] = phraseIndex(words, w)
	}
	pos, found := 0, false
	lexer.ScanPositions(text, opt, func(w string, _ bool) bool {
		ring[pos%n] = phraseIndex(words, w)
		pos++
		if pos < n {
			return true
		}
		for i := range want {
			if ring[(pos+i)%n] != want[i] {
				return true
			}
		}
		found = true
		return false
	})
	return found
}

// phraseIndex returns the index of the first phrase word equal to w, or -1.
func phraseIndex(words []string, w string) int {
	for i, x := range words {
		if x == w {
			return i
		}
	}
	return -1
}

// matchNear reports whether a and b occur within k positions of each other.
func matchNear(text string, opt lexer.Options, a, b string, k int) bool {
	lastA, lastB, pos, found := -1, -1, 0, false
	lexer.ScanPositions(text, opt, func(w string, _ bool) bool {
		switch w {
		case a:
			if lastB >= 0 && pos-lastB <= k {
				found = true
				return false
			}
			lastA = pos
			if a == b {
				lastB = pos
			}
		case b:
			if lastA >= 0 && pos-lastA <= k {
				found = true
				return false
			}
			lastB = pos
		}
		pos++
		return true
	})
	return found
}

// NewPlan lowers an expression into a plan. Planning validates everything
// that does not need a source: scoring mode, positional-leaf wellformedness,
// and the negation algebra (a query whose answer is a complement is
// rejected here).
func NewPlan(e Expr, po PlanOptions) (*Plan, error) {
	pl := &Plan{Fetch: Words(e)}
	switch po.Scoring {
	case "":
	case ScoringVector:
		terms, err := collectScoreTerms(e, false, po, nil)
		if err != nil {
			return nil, err
		}
		pl.Score = newScorePlan(terms, po.K)
	default:
		return nil, fmt.Errorf("query: unknown scoring %q (want %q)", po.Scoring, ScoringVector)
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

// NewRankedBag builds the plan of a bag of words directly — the vector entry
// point's fast path, which has no expression to lower. words may repeat;
// each distinct word scores once (abstracts-style indexes drop duplicate
// tokens, so a query document's term frequency is 1).
func NewRankedBag(words []string, k int) *Plan {
	fetch := make([]string, 0, len(words))
	seen := make(map[string]bool, len(words))
	for _, w := range words {
		if !seen[w] {
			seen[w] = true
			fetch = append(fetch, w)
		}
	}
	return &Plan{
		Fetch: fetch,
		Score: newScorePlan(slices.Clone(fetch), k),
	}
}

// newScorePlan sorts terms, drops their repeats and keeps the result as the
// plan's cursor order.
func newScorePlan(terms []string, k int) *ScorePlan {
	slices.Sort(terms)
	return &ScorePlan{Terms: slices.Compact(terms), K: k}
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

// collectScoreTerms appends the scoring terms of a ranked plan to terms:
// every leaf term in a positive context. Terms under a negation do not
// score — they only exclude. Phrase leaves contribute their distinct words
// (a document matching the phrase necessarily contains them), prefixes
// contribute a "p*" entry for the executor to expand.
func collectScoreTerms(e Expr, neg bool, po PlanOptions, terms []string) ([]string, error) {
	switch e := e.(type) {
	case Word:
		if !neg {
			terms = append(terms, e.W)
		}
	case Prefix:
		if !neg {
			terms = append(terms, e.P+"*")
		}
	case Phrase:
		if !neg {
			terms = append(terms, lexer.Tokenize(e.Text, po.Lexer)...)
		}
	case Near:
		if !neg {
			if a := normalizeQueryWord(e.A, po.Lexer); a != "" {
				terms = append(terms, a)
			}
			if b := normalizeQueryWord(e.B, po.Lexer); b != "" {
				terms = append(terms, b)
			}
		}
	case Region:
		if !neg {
			if w := normalizeQueryWord(e.W, po.Lexer); w != "" {
				terms = append(terms, w)
			}
		}
	case And:
		return collectPair(e.L, e.R, neg, po, terms)
	case Or:
		return collectPair(e.L, e.R, neg, po, terms)
	case Not:
		return collectScoreTerms(e.E, !neg, po, terms)
	default:
		return nil, fmt.Errorf("query: unknown expression %T", e)
	}
	return terms, nil
}

func collectPair(l, r Expr, neg bool, po PlanOptions, terms []string) ([]string, error) {
	terms, err := collectScoreTerms(l, neg, po, terms)
	if err != nil {
		return nil, err
	}
	return collectScoreTerms(r, neg, po, terms)
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
