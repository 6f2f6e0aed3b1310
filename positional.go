package dualindex

import "dualindex/internal/query"

// The positional query layer: phrase, proximity and region conditions from
// the paper's introduction ("the query may also give additional conditions,
// such as requiring that cat and dog occur within so many words of each
// other, or that mouse occur within a title region"). They are atoms of the
// query language ("white mouse", cat near/3 dog, title:mouse), answered by
// Query and SearchBoolean; SearchPhrase builds the phrase leaf from raw
// text. The planner lowers each positional leaf into a candidate-verification
// step: each shard's inverted index prunes to candidate documents and its
// document store verifies positions — the classic candidate-verification
// design for an abstracts-level index — and the sorted per-shard answers are
// merged.

// Document returns the stored text of a document. It requires
// Options.KeepDocuments and returns ok=false for unknown or deleted
// documents.
func (e *Engine) Document(id DocID) (text string, ok bool, err error) {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	s := e.shardFor(id)
	if s == nil {
		return "", false, errClosed
	}
	return s.document(id)
}

// SearchPhrase finds documents containing the exact word sequence of
// phrase (adjacent positions, in order). Requires Options.KeepDocuments.
func (e *Engine) SearchPhrase(phrase string) ([]DocID, error) {
	qo := e.obs.beginQuery("phrase")
	pl, err := query.NewPlan(query.Phrase{Text: phrase}, query.PlanOptions{Lexer: e.opts.Lexer})
	if err != nil {
		return nil, qo.fail(err)
	}
	return e.searchDocs(qo, phrase, pl)
}
