package dualindex

import (
	"slices"

	"dualindex/internal/core"
	"dualindex/internal/postings"
	"dualindex/internal/query"
)

// The pending tier: the paper's in-memory inverted index of the documents
// awaiting a flush. It is both the write buffer and a read tier. AddDocument
// grows it, every query reads it beside the on-disk index, and a flush hands
// its per-word runs to core.ApplyUpdate as the batch's in-memory lists.
// Every query consults up to three tiers behind one merge abstraction
// (query.TieredSource):
//
//   - the on-disk index (or, mid-flush, its published pre-flush snapshot);
//   - mid-flush, the detached pending tier the flush is applying;
//   - the pending tier of documents added since.
//
// The tiers partition the document set — a document is pending, detaching,
// or flushed, never two at once — so the merged per-word lists equal what
// the same documents yield after a flush, and query answers are independent
// of flush timing.

// pendingTier holds one batch of unflushed documents as sorted per-word
// posting runs. It holds no positional data: phrase, proximity and region
// conditions on unflushed documents verify from the document store, which
// AddDocument writes before the document becomes searchable, exactly as
// they do for flushed ones (shard.verifyDocs).
//
// A pendingTier is guarded by its shard's mu: grown under Lock
// (addDocumentLocked), read under RLock, detached and retired by the flush
// publish/release protocol under Lock. While detached it is never grown,
// so mid-flush queries and core.ApplyUpdate read its runs together.
type pendingTier struct {
	// words holds one sorted document run per word. Documents reach a
	// shard in ascending identifier order, so each run grows by a tail Push.
	words map[postings.WordID]*postings.List
	// docs and postings size the tier for stats and metrics.
	docs     int
	postings int64
}

func newPendingTier() *pendingTier {
	return &pendingTier{words: make(map[postings.WordID]*postings.List)}
}

// add indexes one arriving document into the tier: ids holds the word
// identifier of each of its tokens, in text order, repeats included. The
// tier dedupes by identifier, so the bag is never sorted: a repeat is
// skipped when the word's run already ends at doc. doc must be at least
// every identifier already in the tier.
func (lt *pendingTier) add(doc postings.DocID, ids []postings.WordID) {
	for _, w := range ids {
		run := lt.words[w]
		if run == nil {
			run = &postings.List{}
			lt.words[w] = run
		} else if run.MaxDoc() == doc {
			continue
		}
		run.Push(doc)
		lt.postings++
	}
	lt.docs++
}

// updates renders the tier as one batch update: its words in ascending
// identifier order, each run handed over as the word's in-memory list. The
// runs are shared, not copied; core.WordUpdate documents why that is safe.
func (lt *pendingTier) updates() []core.WordUpdate {
	words := make([]postings.WordID, 0, len(lt.words))
	for w := range lt.words {
		words = append(words, w)
	}
	slices.Sort(words)
	out := make([]core.WordUpdate, len(words))
	for i, w := range words {
		run := lt.words[w]
		out[i] = core.WordUpdate{Word: w, Count: run.Len(), List: run}
	}
	return out
}

// absorb folds newer — a tier whose every document identifier exceeds this
// tier's — back into lt. It is the flush failure path: the detached tier
// rejoins the documents that arrived while the failed flush ran, so no
// document is lost or loses searchability.
func (lt *pendingTier) absorb(newer *pendingTier) {
	for w, run := range newer.words {
		old := lt.words[w]
		if old == nil {
			lt.words[w] = run
			continue
		}
		// Identifier disjointness makes this a pure concatenation; Union
		// keeps it allocation-simple on a path only a failed flush takes.
		lt.words[w] = postings.Union(old, run)
	}
	lt.docs += newer.docs
	lt.postings += newer.postings
}

// The tier adapters below are what shard.tiers composes into a
// query.TieredSource; diskTier additionally serves prefix expansion.
var (
	_ query.Source       = diskTier{}
	_ query.PrefixSource = diskTier{}
	_ query.Source       = memTier{}
)

// diskTier adapts the on-disk tier — the live core index, or the published
// pre-flush snapshot while a flush is applying its batch — to the query
// package's Source. It carries the shard's vocabulary for word resolution
// and prefix expansion; the vocabulary spans every tier because words are
// assigned at document-arrival time, so putting this tier first in the
// TieredSource gives truncation queries the whole word population.
type diskTier struct {
	s   *shard
	get func(postings.WordID) (*postings.List, error)
}

func (t diskTier) List(word string) (*postings.List, error) {
	w, known := t.s.vocab.Lookup(word)
	if !known {
		return &postings.List{}, nil
	}
	return t.get(w)
}

func (t diskTier) WordsWithPrefix(prefix string) []string {
	return t.s.vocab.WordsWithPrefix(prefix)
}

// memTier adapts one pending tier to the query package's Source. Deleted
// documents are filtered here, with the same deletion view as the disk tier
// beside it, so a document deleted mid-flush disappears from every tier at
// once.
type memTier struct {
	s       *shard
	tier    *pendingTier
	deleted []postings.DocID // sorted; the view's Deleted
}

// newMemTier adapts tier, or returns nil for a nil tier (no flush in
// progress), which query.NewTieredSource skips.
func newMemTier(s *shard, tier *pendingTier, deleted []postings.DocID) query.Source {
	if tier == nil {
		return nil
	}
	return memTier{s: s, tier: tier, deleted: deleted}
}

func (t memTier) List(word string) (*postings.List, error) {
	w, known := t.s.vocab.Lookup(word)
	if !known {
		return &postings.List{}, nil
	}
	run := t.tier.words[w]
	if run.Len() == 0 {
		return &postings.List{}, nil
	}
	// The result is always a copy, so query execution never aliases the
	// growing run.
	if kept, dropped := run.Without(t.deleted); dropped > 0 {
		return kept, nil
	}
	return run.Clone(), nil
}
