package dualindex

import (
	"dualindex/internal/lexer"
	"dualindex/internal/postings"
	"dualindex/internal/query"
)

// The engine's query side is one three-stage pipeline: parse (a query string
// becomes the query AST), plan (the AST lowers into a shard-executable plan,
// once per query), execute (every shard runs the same plan concurrently
// under the snapshot/fan-out machinery, and the sorted per-shard answers are
// k-way merged). Query ranks and SearchBoolean matches over the one query
// language; SearchVector (a document-like text) and SearchPhrase
// (positional.go) build their leaf of the AST directly and run the same
// pipeline.

// Match is a scored query result.
type Match = query.Match

// Query evaluates a unified-language query and returns the top k documents
// ranked by the vector-space model (ScoringVector: a document scores the
// sum of its matched terms' idf; score descending, ties by ascending
// document). Bare term lists rank as a bag of words ("incremental inverted
// lists"), "and"/"or"/"not" add boolean structure, quoted phrases, "near/k"
// proximity and "title:"/"body:" region filters add positional conditions
// (these require Options.KeepDocuments), and a trailing "*" truncates. See
// query.ParseQuery for the grammar.
func (e *Engine) Query(q string, k int) ([]Match, error) {
	qo := e.obs.beginQuery("query")
	expr, err := query.ParseQuery(q)
	if err != nil {
		return nil, qo.fail(err)
	}
	pl, err := query.NewPlan(expr, query.PlanOptions{
		Lexer:   e.opts.Lexer,
		Scoring: ScoringVector,
		K:       k,
	})
	if err != nil {
		return nil, qo.fail(err)
	}
	// The slow-query log records the canonical rendering of the parsed
	// query, not the raw input: two spellings of the same query ("a AND b",
	// "(a and b)") log identically, so slow-log entries group by what was
	// executed rather than what was typed.
	return e.searchRanked(qo, expr.String(), pl)
}

// SearchBoolean evaluates a query such as "(cat and dog) or mouse",
// "cat near/3 dog" or "title:rates and not storm" and returns every matching
// document in ascending order, unranked. It takes Query's language except
// adjacency: a bag of words ("cat dog") only has a meaning when ranked, so
// terms are joined by "and" or "or" (see query.Parse). Truncation terms
// ("inver*") expand through each shard's sorted vocabulary; phrases,
// proximity and regions require Options.KeepDocuments. Pending documents
// are visible. The query is parsed and planned once, executed on every
// shard concurrently — each shard fetching its term lists with at most
// Options.Workers reads in flight — and the sorted per-shard answers are
// k-way merged.
func (e *Engine) SearchBoolean(q string) ([]DocID, error) {
	qo := e.obs.beginQuery("boolean")
	expr, err := query.Parse(q)
	if err != nil {
		return nil, qo.fail(err)
	}
	pl, err := query.NewPlan(expr, query.PlanOptions{Lexer: e.opts.Lexer})
	if err != nil {
		return nil, qo.fail(err)
	}
	return e.searchDocs(qo, q, pl)
}

// SearchVector ranks documents against the words of text (a document-like
// query, the paper's vector-space workload) and returns the top k, each
// scored by the sum of its shared words' idf. Vector queries "often contain many words (more than
// 100)"; every shard fetches its term lists concurrently (at most
// Options.Workers reads in flight per shard), scores its own documents, and
// the per-shard top-k lists are merged into the global top k. Inverse
// document frequencies use the engine-wide collection size over shard-local
// list lengths — exact for a single shard, the standard
// distributed-retrieval approximation otherwise.
func (e *Engine) SearchVector(text string, k int) ([]Match, error) {
	qo := e.obs.beginQuery("vector")
	words := lexer.Tokenize(text, e.opts.Lexer)
	pl := query.NewRankedBag(words, k)
	return e.searchRanked(qo, text, pl)
}

// searchDocs runs a match-only plan on every shard and merges the sorted
// per-shard answers.
func (e *Engine) searchDocs(qo queryObs, text string, pl *query.Plan) ([]DocID, error) {
	qo.routeDone()
	lists, err := fanOut(e, func(s *shard) (*postings.List, error) {
		return s.execMatch(pl)
	})
	if err != nil {
		return nil, qo.fail(err)
	}
	qo.mergeStart()
	docs := postings.UnionAll(lists).Docs()
	qo.finish(text, len(docs))
	return docs, nil
}

// searchRanked runs a ranked plan on every shard and merges the per-shard
// top-k lists into the global top k.
func (e *Engine) searchRanked(qo queryObs, text string, pl *query.Plan) ([]Match, error) {
	total := e.collectionSize()
	qo.routeDone()
	groups, err := fanOut(e, func(s *shard) ([]Match, error) {
		return s.execRanked(pl, total)
	})
	if err != nil {
		return nil, qo.fail(err)
	}
	qo.mergeStart()
	matches := query.MergeMatches(groups, pl.Score.K)
	qo.finish(text, len(matches))
	return matches, nil
}

// collectionSize reports how many documents the engine has seen — the idf
// numerator. It reads the per-shard high-water marks under the shard-set
// lock (the same path every query takes), not the document-id allocator's
// mutex: queries never contend with AddDocument's id assignment.
func (e *Engine) collectionSize() int {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	var max DocID
	for _, s := range e.shards {
		if d := s.maxDoc(); d > max {
			max = d
		}
	}
	return int(max)
}

// ReadCost reports how many disk reads a query for word would need — the
// paper's query-performance metric (1 chunk = 1 read; bucket words are in
// memory) — summed over the shards holding pieces of the word's list.
func (e *Engine) ReadCost(word string) int {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	n := 0
	for _, s := range e.shards {
		n += s.readCost(word)
	}
	return n
}
