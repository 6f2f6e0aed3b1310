// Package query implements the retrieval side of the paper's
// information-retrieval workload as one layered pipeline: a parser producing
// a single query AST (ast.go, parser.go), a planner lowering the AST into a
// per-shard executable plan (plan.go), and an executor running the plan
// against any Source (exec.go), scoring ranked nodes through the paper's
// vector-space model (score.go).
package query

import "fmt"

// The one query AST. Every engine entry point parses into this tree — Query
// through ParseQuery, SearchBoolean through Parse (the same grammar without
// adjacency) — or builds its leaf directly (SearchVector's bag, SearchPhrase's
// phrase); the planner (plan.go) lowers it into a per-shard executable plan,
// and the executor (exec.go) runs that plan against any Source. Nodes fall
// into two families:
//
//   - set-algebra nodes (Word, Prefix, And, Or, Not), resolvable entirely
//     from inverted lists;
//   - positional leaves (Phrase, Near, Region), which prune candidates
//     through inverted lists and then verify positions against stored
//     document text — the paper's "additional conditions" (proximity and
//     region constraints).
//
// String renders every node canonically; parsing a rendering yields a tree
// with the same rendering, which is the parser's round-trip invariant.

// Expr is a node of the query AST.
type Expr interface {
	// String renders the expression canonically.
	String() string
}

// Word is a single-word leaf.
type Word struct{ W string }

// Prefix is a truncation leaf ("inver*"): the union of the lists of every
// vocabulary word starting with P.
type Prefix struct{ P string }

// And, Or and Not are the boolean connectives.
type (
	And struct{ L, R Expr }
	Or  struct{ L, R Expr }
	Not struct{ E Expr }
)

// Phrase is an exact-sequence leaf (`"white mouse"`): documents containing
// the phrase's words at consecutive positions, in order. The raw text is
// kept verbatim; the planner tokenizes it with the engine's lexer options,
// so a phrase matches exactly what indexing saw.
type Phrase struct{ Text string }

// Near is a proximity leaf ("cat near/3 dog"): documents where A and B
// occur within K words of each other, in either order.
type Near struct {
	A, B string
	K    int
}

// Region is a region-filter leaf ("title:mouse"): documents where W occurs
// within the named region.
type Region struct{ Name, W string }

func (w Word) String() string   { return w.W }
func (p Prefix) String() string { return p.P + "*" }
func (a And) String() string    { return fmt.Sprintf("(%s and %s)", a.L, a.R) }
func (o Or) String() string     { return fmt.Sprintf("(%s or %s)", o.L, o.R) }
func (n Not) String() string    { return fmt.Sprintf("(not %s)", n.E) }
func (p Phrase) String() string { return `"` + p.Text + `"` }
func (n Near) String() string   { return fmt.Sprintf("(%s near/%d %s)", n.A, n.K, n.B) }
func (r Region) String() string { return r.Name + ":" + r.W }

// Words returns the distinct dictionary terms of an expression, in
// first-appearance order — the lists to fetch up front before set-algebra
// evaluation. Positional leaves contribute nothing here: their prune lists
// stream lazily at verification time (see VerifyStep), so an empty
// candidate intersection stops reading early.
func Words(e Expr) []string {
	seen := map[string]bool{}
	var out []string
	var walk func(Expr)
	walk = func(e Expr) {
		switch e := e.(type) {
		case Word:
			if !seen[e.W] {
				seen[e.W] = true
				out = append(out, e.W)
			}
		case Prefix:
			key := e.P + "*"
			if !seen[key] {
				seen[key] = true
				out = append(out, key)
			}
		case And:
			walk(e.L)
			walk(e.R)
		case Or:
			walk(e.L)
			walk(e.R)
		case Not:
			walk(e.E)
		}
	}
	walk(e)
	return out
}
