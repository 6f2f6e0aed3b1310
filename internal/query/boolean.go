// Package query implements the retrieval side of the paper's
// information-retrieval workload as one layered pipeline: a parser producing
// a single query AST (ast.go, parser.go), a planner lowering the AST into a
// per-shard executable plan (plan.go), and an executor running the plan
// against any Source (exec.go), scoring ranked nodes through the paper's
// vector-space model or BM25 (score.go).
//
// This file keeps the legacy boolean grammar ("(cat and dog) or mouse"); the
// planner lowers its trees like any other.
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
// planning: an inverted index cannot enumerate the complement.
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
