package query

import (
	"fmt"
	"strconv"
	"strings"

	"dualindex/internal/lexer"
)

// The query language. One string expresses every query the engine answers,
// ranked (Engine.Query) or not (Engine.SearchBoolean):
//
//	query    = or_expr ;
//	or_expr  = and_expr { [ "or" ] and_expr } ;      (* adjacency = or *)
//	and_expr = not_expr { "and" not_expr } ;
//	not_expr = "not" not_expr | prox ;
//	prox     = atom [ "near/" INT atom ] ;           (* operands: plain words *)
//	atom     = "(" query ")" | PHRASE | REGION ":" WORD | WORD "*" | WORD ;
//	PHRASE   = '"' any-text '"' ;
//	REGION   = "title" | "body" ;
//
// Keywords are case-insensitive; words are lowercased. Bare adjacent terms
// ("incremental inverted lists") OR together, which — combined with ranked
// scoring over every positive leaf — gives the classic bag-of-words vector
// query; "and"/"not" tighten it into boolean structure; quoted phrases,
// near/k proximity and region filters add the paper's positional
// conditions; a trailing "*" truncates. Precedence, loosest to tightest:
// or/adjacency, and, not, near/k. Parse, for unranked queries, refuses
// adjacency and accepts the rest.

// ParseQuery parses a unified-language query into the query AST. The
// rendering of the result re-parses to an identical rendering (the
// round-trip invariant pinned by FuzzParseQuery).
func ParseQuery(s string) (Expr, error) { return parse(s, true) }

// Parse parses a query for the unranked entry point: the whole language
// except adjacency. A bare "cat dog" is a bag of words, which only has a
// meaning when ranked, so here two terms must be joined by "and" or "or" at
// every depth; phrases, near/k, regions and prefixes are accepted as in
// ParseQuery, and whatever Parse accepts, ParseQuery parses to the same tree.
//
// Queries that are purely negative (e.g. "not cat") parse but fail at
// planning: an inverted index cannot enumerate the complement.
func Parse(s string) (Expr, error) { return parse(s, false) }

func parse(s string, bags bool) (Expr, error) {
	toks, err := scanQuery(s)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("query: empty query")
	}
	p := &qparser{toks: toks, bags: bags}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("query: unexpected %q after expression", p.peek().display())
	}
	return e, nil
}

// Token kinds of the unified scanner.
type qtokKind int

const (
	tokWord qtokKind = iota
	tokPrefix
	tokPhrase
	tokRegion
	tokNear
	tokAnd
	tokOr
	tokNot
	tokLParen
	tokRParen
)

type qtoken struct {
	kind qtokKind
	text string // word, prefix (sans '*'), phrase text, or region word
	name string // region name for tokRegion
	k    int    // window for tokNear
}

func (t qtoken) display() string {
	switch t.kind {
	case tokPrefix:
		return t.text + "*"
	case tokPhrase:
		return `"` + t.text + `"`
	case tokRegion:
		return t.name + ":" + t.text
	case tokNear:
		return fmt.Sprintf("near/%d", t.k)
	case tokAnd:
		return "and"
	case tokOr:
		return "or"
	case tokNot:
		return "not"
	case tokLParen:
		return "("
	case tokRParen:
		return ")"
	}
	return t.text
}

// scanQuery splits a query string into tokens. Quoted runs become phrase
// tokens verbatim; everything else is words, keywords, the near/k operator,
// region-qualified words and parentheses.
func scanQuery(s string) ([]qtoken, error) {
	var toks []qtoken
	rs := []rune(s)
	for i := 0; i < len(rs); i++ {
		r := rs[i]
		switch {
		case r == ' ' || r == '\t' || r == '\n' || r == '\r':
		case r == '(':
			toks = append(toks, qtoken{kind: tokLParen})
		case r == ')':
			toks = append(toks, qtoken{kind: tokRParen})
		case r == '"':
			j := i + 1
			for j < len(rs) && rs[j] != '"' {
				j++
			}
			if j == len(rs) {
				return nil, fmt.Errorf("query: unterminated quote")
			}
			toks = append(toks, qtoken{kind: tokPhrase, text: string(rs[i+1 : j])})
			i = j
		default:
			j := i
			for j < len(rs) && isAtomRune(rs[j]) {
				j++
			}
			if j == i {
				return nil, fmt.Errorf("query: illegal character %q", r)
			}
			tok, err := classifyWord(string(rs[i:j]))
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
			i = j - 1
		}
	}
	return toks, nil
}

func isAtomRune(r rune) bool {
	return (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
		(r >= '0' && r <= '9') || r == '*' || r == ':' || r == '/'
}

// classifyWord resolves one unquoted run: keyword, near/k operator,
// region-qualified word, truncation prefix or plain word.
func classifyWord(raw string) (qtoken, error) {
	w := strings.ToLower(raw)
	switch w {
	case "and":
		return qtoken{kind: tokAnd}, nil
	case "or":
		return qtoken{kind: tokOr}, nil
	case "not":
		return qtoken{kind: tokNot}, nil
	}
	if rest, ok := strings.CutPrefix(w, "near/"); ok {
		k, err := strconv.Atoi(rest)
		if err != nil {
			return qtoken{}, fmt.Errorf("query: bad proximity operator %q (want near/k)", raw)
		}
		if k < 1 {
			return qtoken{}, fmt.Errorf("query: proximity window %d < 1", k)
		}
		return qtoken{kind: tokNear, k: k}, nil
	}
	if name, term, ok := strings.Cut(w, ":"); ok {
		if name != lexer.RegionTitle && name != lexer.RegionBody {
			return qtoken{}, fmt.Errorf("query: unknown region %q (regions: %s, %s)",
				name, lexer.RegionTitle, lexer.RegionBody)
		}
		if term == "" || !isPlainWord(term) {
			return qtoken{}, fmt.Errorf("query: bad region term %q (want %s:word)", raw, name)
		}
		return qtoken{kind: tokRegion, name: name, text: term}, nil
	}
	if i := strings.IndexByte(w, '*'); i >= 0 {
		if i != len(w)-1 || i == 0 {
			return qtoken{}, fmt.Errorf("query: %q: '*' is only valid at the end of a word", raw)
		}
		return qtoken{kind: tokPrefix, text: w[:len(w)-1]}, nil
	}
	if !isPlainWord(w) {
		return qtoken{}, fmt.Errorf("query: %q: '/' is only valid in near/k", raw)
	}
	return qtoken{kind: tokWord, text: w}, nil
}

func isPlainWord(w string) bool {
	for _, r := range w {
		if !((r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')) {
			return false
		}
	}
	return w != ""
}

type qparser struct {
	toks []qtoken
	pos  int
	bags bool // adjacency reads as or; otherwise it is an error
}

func (p *qparser) eof() bool { return p.pos >= len(p.toks) }

func (p *qparser) peek() qtoken {
	if p.eof() {
		return qtoken{kind: -1}
	}
	return p.toks[p.pos]
}

// startsFactor reports whether the next token can begin a factor — the
// adjacency test: "cat dog" continues the or-level without a keyword.
func (p *qparser) startsFactor() bool {
	switch p.peek().kind {
	case tokWord, tokPrefix, tokPhrase, tokRegion, tokLParen, tokNot:
		return true
	}
	return false
}

func (p *qparser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		if p.peek().kind == tokOr {
			p.pos++
		} else if !p.startsFactor() {
			return left, nil
		} else if !p.bags {
			return nil, fmt.Errorf("query: unexpected %q: join terms with and/or (a bag of words needs a ranked query)", p.peek().display())
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = Or{left, right}
	}
}

func (p *qparser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokAnd {
		p.pos++
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = And{left, right}
	}
	return left, nil
}

func (p *qparser) parseNot() (Expr, error) {
	if p.peek().kind == tokNot {
		p.pos++
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Not{e}, nil
	}
	return p.parseProx()
}

func (p *qparser) parseProx() (Expr, error) {
	left, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokNear {
		return left, nil
	}
	k := p.peek().k
	a, ok := left.(Word)
	if !ok {
		return nil, fmt.Errorf("query: near/%d needs plain words on both sides", k)
	}
	p.pos++
	right, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	b, ok := right.(Word)
	if !ok {
		return nil, fmt.Errorf("query: near/%d needs plain words on both sides", k)
	}
	return Near{A: a.W, B: b.W, K: k}, nil
}

func (p *qparser) parseAtom() (Expr, error) {
	if p.eof() {
		return nil, fmt.Errorf("query: unexpected end of query")
	}
	tok := p.peek()
	switch tok.kind {
	case tokLParen:
		p.pos++
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokRParen {
			return nil, fmt.Errorf("query: missing closing parenthesis")
		}
		p.pos++
		return e, nil
	case tokPhrase:
		p.pos++
		return Phrase{Text: tok.text}, nil
	case tokRegion:
		p.pos++
		return Region{Name: tok.name, W: tok.text}, nil
	case tokPrefix:
		p.pos++
		return Prefix{P: tok.text}, nil
	case tokWord:
		p.pos++
		return Word{W: tok.text}, nil
	}
	return nil, fmt.Errorf("query: unexpected %q", tok.display())
}
