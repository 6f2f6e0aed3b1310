package query

import "dualindex/internal/postings"

// The tier merge: a dynamic index answers queries from several read tiers at
// once — an in-memory pending tier of still-unflushed documents, possibly a
// detached batch that a running flush is applying, and the on-disk index (or
// its published pre-flush snapshot). TieredSource composes those tiers into
// the one Source the executor, the prefetcher and the scorer already
// consume, so ExecuteMatch and ExecuteRanked see a single merged inverted
// list per word and need no tier awareness of their own: boolean steps,
// positional pruning and tf·idf scoring all operate on the merged lists, and
// the per-shard answers that reach the cross-shard k-way merge are already
// deduplicated.

// TieredSource merges the inverted lists of several read tiers into one
// Source. List unions the per-tier lists with a k-way merge; a document
// reported by more than one tier is one posting (tiers are normally
// disjoint — a document lives in exactly one tier at a time).
//
// Tier order carries no semantic weight for List, but WordsWithPrefix
// resolves through the first tier that can expand prefixes: the engine puts
// the on-disk tier first, whose vocabulary covers every tier because words
// are assigned at document-arrival time.
type TieredSource struct {
	tiers []Source
}

// NewTieredSource composes tiers into one Source. Nil tiers are skipped, so
// callers can pass optional tiers (a flush's detached batch)
// unconditionally.
func NewTieredSource(tiers ...Source) *TieredSource {
	ts := &TieredSource{tiers: make([]Source, 0, len(tiers))}
	for _, t := range tiers {
		if t != nil {
			ts.tiers = append(ts.tiers, t)
		}
	}
	return ts
}

// List implements Source: the union of every tier's list for word, sorted by
// document with per-document dedup.
func (ts *TieredSource) List(word string) (*postings.List, error) {
	if len(ts.tiers) == 1 {
		return ts.tiers[0].List(word)
	}
	lists := make([]*postings.List, len(ts.tiers))
	for i, t := range ts.tiers {
		l, err := t.List(word)
		if err != nil {
			return nil, err
		}
		lists[i] = l
	}
	return postings.UnionAll(lists), nil
}

// WordsWithPrefix implements PrefixSource through the first tier that can
// expand prefixes; a TieredSource with no such tier returns nil (and the
// executor reports the truncation as unsupported).
func (ts *TieredSource) WordsWithPrefix(prefix string) []string {
	for _, t := range ts.tiers {
		if ps, ok := t.(PrefixSource); ok {
			return ps.WordsWithPrefix(prefix)
		}
	}
	return nil
}
