package query

import "slices"

// The fan-out/merge half of ranked query evaluation: each shard answers
// over its own partition of the documents, and the engine combines the
// per-shard top-k lists here. Shards partition documents, so the merged
// inputs are disjoint; the merge still tolerates (and drops) duplicates so
// it is safe on arbitrary inputs. The document lists of match-only plans
// merge through postings.UnionAll.

// compareMatches is the vector-result order: score descending, ties broken
// by ascending document id.
func compareMatches(a, b Match) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	case a.Doc < b.Doc:
		return -1
	case a.Doc > b.Doc:
		return 1
	}
	return 0
}

// MergeMatches merges per-shard top-k match lists — each sorted by score
// descending, ties by ascending document — into the global top k in the
// same order. A single input group is truncated and returned as is.
// compareMatches orders distinct documents totally, so sorting the
// concatenated groups and dropping repeats is the merge.
func MergeMatches(groups [][]Match, k int) []Match {
	if k <= 0 {
		return nil
	}
	var last []Match
	total, nonEmpty := 0, 0
	for _, g := range groups {
		if len(g) > 0 {
			last = g
			total += len(g)
			nonEmpty++
		}
	}
	switch nonEmpty {
	case 0:
		return nil
	case 1:
		if len(last) > k {
			last = last[:k:k]
		}
		return last
	}
	all := make([]Match, 0, total)
	for _, g := range groups {
		all = append(all, g...)
	}
	slices.SortFunc(all, compareMatches)
	all = slices.Compact(all)
	n := min(k, len(all))
	return all[:n:n]
}
