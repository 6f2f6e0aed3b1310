// Package query implements the retrieval side of the paper's
// information-retrieval workload as one layered pipeline: a parser producing
// a single query AST (ast.go, parser.go), a planner lowering the AST into a
// per-shard executable plan (plan.go), and an executor running the plan
// against any Source (exec.go), scoring ranked nodes through the paper's
// vector-space model or BM25 (score.go).
//
// This file keeps the original boolean model — the legacy grammar
// ("(cat and dog) or mouse") and the direct list-merging evaluator — whose
// behaviour the planner's set-operation lowering mirrors exactly.
package query

import (
	"fmt"
	"strings"

	"dualindex/internal/postings"
)

// Source supplies the inverted list for a word. Lists must be sorted by
// document identifier; a word with no list returns an empty list.
type Source interface {
	List(word string) (*postings.List, error)
}

// A PrefixSource additionally enumerates the vocabulary by prefix, enabling
// truncation queries ("inver*"). Sources without this capability reject
// prefix queries at evaluation time.
type PrefixSource interface {
	Source
	WordsWithPrefix(prefix string) []string
}

// Parse parses a query in the legacy boolean grammar (case-insensitive
// keywords):
//
//	expr   = term { "or" term }
//	term   = factor { "and" factor }
//	factor = "not" factor | "(" expr ")" | WORD | WORD "*"
//
// A trailing "*" makes a truncation term ("inver*"), matching every
// vocabulary word with that prefix.
//
// Unlike ParseQuery's unified language, adjacent bare words are an error
// here, so the boolean entry point keeps rejecting what it always rejected.
//
// Queries that are purely negative (e.g. "not cat") parse but fail at
// evaluation: an inverted index cannot enumerate the complement.
func Parse(s string) (Expr, error) {
	toks, err := tokenize(s)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("query: unexpected %q after expression", p.peek())
	}
	return e, nil
}

func tokenize(s string) ([]string, error) {
	var toks []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			toks = append(toks, strings.ToLower(b.String()))
			b.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r == '(' || r == ')':
			flush()
			toks = append(toks, string(r))
		case r == ' ' || r == '\t' || r == '\n' || r == '\r':
			flush()
		case (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') || r == '*':
			b.WriteRune(r)
		default:
			return nil, fmt.Errorf("query: illegal character %q", r)
		}
	}
	flush()
	if len(toks) == 0 {
		return nil, fmt.Errorf("query: empty query")
	}
	return toks, nil
}

type parser struct {
	toks []string
	pos  int
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() string {
	if p.eof() {
		return ""
	}
	return p.toks[p.pos]
}

func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.peek() == "or" {
		p.pos++
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = Or{left, right}
	}
	return left, nil
}

func (p *parser) parseTerm() (Expr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.peek() == "and" {
		p.pos++
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		left = And{left, right}
	}
	return left, nil
}

func (p *parser) parseFactor() (Expr, error) {
	switch tok := p.peek(); {
	case tok == "":
		return nil, fmt.Errorf("query: unexpected end of query")
	case tok == "not":
		p.pos++
		e, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return Not{e}, nil
	case tok == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ")" {
			return nil, fmt.Errorf("query: missing closing parenthesis")
		}
		p.pos++
		return e, nil
	case tok == ")" || tok == "and" || tok == "or":
		return nil, fmt.Errorf("query: unexpected %q", tok)
	default:
		p.pos++
		if i := strings.IndexByte(tok, '*'); i >= 0 {
			if i != len(tok)-1 || i == 0 {
				return nil, fmt.Errorf("query: %q: '*' is only valid at the end of a word", tok)
			}
			return Prefix{tok[:len(tok)-1]}, nil
		}
		return Word{tok}, nil
	}
}

// result carries an evaluated sub-expression: a list, possibly under
// negation (the complement of the list).
type result struct {
	list    *postings.List
	negated bool
}

// EvalBoolean evaluates a parsed expression against src and returns the
// matching documents in ascending order. Negation is supported only where
// it can be resolved by list difference; a query whose overall answer is a
// complement ("not cat", "not cat or not dog") returns an error.
//
// The planner lowers the same algebra into set-operation steps at plan time
// (see NewPlan); EvalBoolean remains as the direct evaluator the planner's
// property tests compare against.
func EvalBoolean(e Expr, src Source) (*postings.List, error) {
	res, err := eval(e, src)
	if err != nil {
		return nil, err
	}
	if res.negated {
		return nil, errComplement
	}
	return res.list, nil
}

// errComplement rejects queries whose answer would be the complement of a
// list — the executor and the planner report the identical condition.
var errComplement = fmt.Errorf("query: answer is a complement; add a positive term")

func eval(e Expr, src Source) (result, error) {
	switch e := e.(type) {
	case Word:
		l, err := src.List(e.W)
		if err != nil {
			return result{}, err
		}
		if l == nil {
			l = &postings.List{}
		}
		return result{list: l}, nil
	case Prefix:
		ps, ok := src.(PrefixSource)
		if !ok {
			return result{}, fmt.Errorf("query: source does not support truncation (%s*)", e.P)
		}
		words := ps.WordsWithPrefix(e.P)
		lists := make([]*postings.List, 0, len(words))
		for _, w := range words {
			l, err := src.List(w)
			if err != nil {
				return result{}, err
			}
			lists = append(lists, l)
		}
		// A truncation can expand to hundreds of words; merge them all in
		// one k-way heap pass.
		return result{list: postings.UnionAll(lists)}, nil
	case Not:
		r, err := eval(e.E, src)
		if err != nil {
			return result{}, err
		}
		r.negated = !r.negated
		return r, nil
	case And:
		l, err := eval(e.L, src)
		if err != nil {
			return result{}, err
		}
		r, err := eval(e.R, src)
		if err != nil {
			return result{}, err
		}
		switch {
		case !l.negated && !r.negated:
			return result{list: postings.Intersect(l.list, r.list)}, nil
		case !l.negated && r.negated:
			return result{list: postings.Difference(l.list, r.list)}, nil
		case l.negated && !r.negated:
			return result{list: postings.Difference(r.list, l.list)}, nil
		default: // ¬a ∧ ¬b = ¬(a ∪ b)
			return result{list: postings.Union(l.list, r.list), negated: true}, nil
		}
	case Or:
		l, err := eval(e.L, src)
		if err != nil {
			return result{}, err
		}
		r, err := eval(e.R, src)
		if err != nil {
			return result{}, err
		}
		switch {
		case !l.negated && !r.negated:
			return result{list: postings.Union(l.list, r.list)}, nil
		case !l.negated && r.negated: // a ∨ ¬b = ¬(b − a)
			return result{list: postings.Difference(r.list, l.list), negated: true}, nil
		case l.negated && !r.negated:
			return result{list: postings.Difference(l.list, r.list), negated: true}, nil
		default: // ¬a ∨ ¬b = ¬(a ∩ b)
			return result{list: postings.Intersect(l.list, r.list), negated: true}, nil
		}
	}
	return result{}, fmt.Errorf("query: unknown expression %T", e)
}
