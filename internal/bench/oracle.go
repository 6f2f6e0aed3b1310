package bench

import (
	"fmt"
	"slices"

	"dualindex"
	"dualindex/internal/lexer"
)

// oracle is the naive model every answer is checked against, outside the
// timed region. It knows nothing of buckets, long lists, tiers or shards:
// a word's documents are whatever lexer.Tokenize says, positions are what
// lexer.TokenizePositions says, a document is visible from the moment it
// is added until it is deleted.
type oracle struct {
	words    map[string]int32
	termDocs [][]uint32 // word id -> ascending DocIDs containing it
	docToks  [][]int32  // DocID-1 -> word ids in position order

	// Replay state: documents 1..added exist, deleted[d] marks the dead.
	added   uint32
	deleted []bool
}

func newOracle(docs []string) *oracle {
	o := &oracle{
		words:   make(map[string]int32),
		docToks: make([][]int32, len(docs)),
		deleted: make([]bool, len(docs)+1),
	}
	for i, text := range docs {
		id := uint32(i + 1)
		for _, w := range lexer.Tokenize(text, lexer.Options{}) {
			wid := o.intern(w)
			o.termDocs[wid] = append(o.termDocs[wid], id)
		}
		toks := lexer.TokenizePositions(text, lexer.Options{})
		seq := make([]int32, len(toks))
		for j, t := range toks {
			seq[j] = o.intern(t.Word)
		}
		o.docToks[i] = seq
	}
	return o
}

func (o *oracle) intern(w string) int32 {
	id, ok := o.words[w]
	if !ok {
		id = int32(len(o.termDocs))
		o.words[w] = id
		o.termDocs = append(o.termDocs, nil)
	}
	return id
}

// docs returns the visible, live documents containing word.
func (o *oracle) docs(word string) []uint32 {
	id, ok := o.words[word]
	if !ok {
		return nil
	}
	var out []uint32
	for _, d := range o.termDocs[id] {
		if d > o.added {
			break
		}
		if !o.deleted[d] {
			out = append(out, d)
		}
	}
	return out
}

func intersect(a, b []uint32) []uint32 {
	var out []uint32
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func union(a, b []uint32) []uint32 {
	out := append(slices.Clone(a), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// boolean evaluates the generator's two shapes: "a and b" and
// "(a and b) or c"; a single term is itself.
func (o *oracle) boolean(terms []string) []uint32 {
	switch len(terms) {
	case 1:
		return o.docs(terms[0])
	case 2:
		return intersect(o.docs(terms[0]), o.docs(terms[1]))
	default:
		return union(intersect(o.docs(terms[0]), o.docs(terms[1])), o.docs(terms[2]))
	}
}

// phrase returns the documents where terms[1] directly follows terms[0].
func (o *oracle) phrase(terms []string) []uint32 {
	a, okA := o.words[terms[0]]
	b, okB := o.words[terms[1]]
	if !okA || !okB {
		return nil
	}
	var out []uint32
	for _, d := range intersect(o.docs(terms[0]), o.docs(terms[1])) {
		seq := o.docToks[d-1]
		for i := 0; i+1 < len(seq); i++ {
			if seq[i] == a && seq[i+1] == b {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

// answer is what the executor keeps of one query's result: enough to
// compare exactly (count and an order-sensitive hash of the DocIDs) without
// holding a thousand multi-thousand-document answers live, which would
// turn the harness into the heap it is measuring. Ranked answers are at
// most k matches and are kept whole.
type answer struct {
	n    int32
	hash uint64
}

// fnv is a running FNV-1a-style hash over 64-bit values.
type fnv uint64

const fnvOffset fnv = 14695981039346656037

func (h *fnv) mix(v uint64) { *h = (*h ^ fnv(v)) * 1099511628211 }

func hashDocs[T ~uint32](docs []T) answer {
	h := fnvOffset
	for _, d := range docs {
		h.mix(uint64(d))
	}
	return answer{n: int32(len(docs)), hash: uint64(h)}
}

// checkRanked verifies a ranked answer the way the issue fixes it: k
// respected, scores non-increasing, every hit a live visible document
// containing at least one query term, no document twice — and, when fewer
// than k came back, that the model has no further candidate.
func (o *oracle) checkRanked(terms []string, got []dualindex.Match) error {
	if len(got) > rankK {
		return fmt.Errorf("%d matches for k=%d", len(got), rankK)
	}
	var candidates []uint32
	for _, t := range terms {
		candidates = union(candidates, o.docs(t))
	}
	if want := min(rankK, len(candidates)); len(got) != want {
		return fmt.Errorf("%d matches, model has %d candidates", len(got), len(candidates))
	}
	seen := make(map[dualindex.DocID]bool, len(got))
	for i, m := range got {
		if i > 0 && m.Score > got[i-1].Score {
			return fmt.Errorf("score rises at rank %d: %v after %v", i, m.Score, got[i-1].Score)
		}
		if seen[m.Doc] {
			return fmt.Errorf("doc %d ranked twice", m.Doc)
		}
		seen[m.Doc] = true
		if _, ok := slices.BinarySearch(candidates, uint32(m.Doc)); !ok {
			return fmt.Errorf("doc %d holds no query term (or is dead or not yet added)", m.Doc)
		}
	}
	return nil
}

// apply advances the replay state past a mutating op.
func (o *oracle) apply(p *op) {
	switch p.kind {
	case opAdd:
		o.added = p.doc
	case opDelete:
		o.deleted[p.doc] = true
	}
}

// expect returns the exact answer the engine must give to a boolean,
// phrase or probe op in the current replay state.
func (o *oracle) expect(p *op) answer {
	if p.kind == opPhrase {
		return hashDocs(o.phrase(p.terms))
	}
	return hashDocs(o.boolean(p.terms))
}
