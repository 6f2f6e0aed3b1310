package bench

import (
	"dualindex"
	"dualindex/internal/corpus"
)

// opKind is one public engine call (or an untimed harness step).
type opKind uint8

const (
	opAdd    opKind = iota // AddDocument
	opProbe                // SearchBoolean(marker) straight after a marker add
	opFlush                // FlushBatch
	opBool                 // SearchBoolean
	opRank                 // Query(q, 10)
	opPhrase               // SearchPhrase
	opDelete               // Delete
	opSweep                // Sweep
	opOpen                 // Open
	opClose                // Close
	opCheck                // CheckConsistency (untimed)
	opMark                 // heap and Stats sample (untimed)
	numOpKinds
)

var opNames = [numOpKinds]string{
	"add", "probe", "flush", "bool", "rank", "phrase",
	"delete", "sweep", "open", "close", "check", "mark",
}

func (k opKind) isQuery() bool { return k == opBool || k == opRank || k == opPhrase }

// op is one step of a workload's script. The script is fixed by the seed
// before anything is timed, so op i is the same work in every repetition —
// what lets the harness take per-operation medians across repetitions and
// demand that every count repeat exactly.
type op struct {
	kind  opKind
	warm  bool     // executed and verified, excluded from every metric
	phase uint8    // index into script.phases
	group int32    // reopen cycle this op belongs to, or -1
	doc   uint32   // add/probe: the DocID the engine must assign; delete: the victim
	text  string   // add: document text; probe and queries: the query string
	terms []string // the oracle's view of a query
}

// script is a workload's whole op sequence: ops[:timedFrom] build the
// starting state once during set-up, ops[timedFrom:] are the timed region
// every repetition replays on a fresh copy of that state.
type script struct {
	phases    []string
	ops       []op
	timedFrom int
	docs      []string // document texts in DocID order (docs[0] is DocID 1)
	opts      dualindex.Options
}

// builder assembles a script. It tracks what the engine's state will be at
// each point (documents added, oldest live document) so generated queries
// and deletes refer to documents that exist.
type builder struct {
	s       *script
	q       *queryGen
	phase   uint8
	group   int32
	src     []corpus.Document // the generated document behind each s.docs entry
	oldest  uint32            // smallest DocID not yet deleted
	markers int
	asked   int           // measured (non-warm-up) queries emitted so far
	kinds   map[mix]*deck // per mix: 0 boolean, 1 ranked, 2 phrase
}

func newBuilder(seed int64, opts dualindex.Options) *builder {
	return &builder{
		s: &script{opts: opts}, q: newQueryGen(seed),
		group: -1, oldest: 1, kinds: make(map[mix]*deck),
	}
}

func (b *builder) setPhase(name string) {
	for i, p := range b.s.phases {
		if p == name {
			b.phase = uint8(i)
			return
		}
	}
	b.s.phases = append(b.s.phases, name)
	b.phase = uint8(len(b.s.phases) - 1)
}

func (b *builder) emit(o op) {
	o.phase, o.group = b.phase, b.group
	b.s.ops = append(b.s.ops, o)
}

// startTimed marks the end of the set-up ops.
func (b *builder) startTimed() { b.s.timedFrom = len(b.s.ops) }

// add emits the AddDocument of d, with extra appended to its text.
func (b *builder) add(d corpus.Document, day int, extra string) {
	text := corpus.DocText(d, day) + extra
	b.s.docs = append(b.s.docs, text)
	b.src = append(b.src, d)
	b.emit(op{kind: opAdd, doc: uint32(len(b.s.docs)), text: text})
}

// addVisible adds a document carrying a unique marker word and at once
// asks for it: the pair is one add-to-visible sample, and the answer must
// be exactly that document.
func (b *builder) addVisible(d corpus.Document, day int) {
	m := markerWord(b.markers)
	b.markers++
	b.add(d, day, m+"\n")
	b.emit(op{kind: opProbe, doc: uint32(len(b.s.docs)), text: m, terms: []string{m}})
}

// addDay adds a day's documents, every probeEvery-th of the stream as a
// visibility sample (0 = none), and flushes.
func (b *builder) addDay(day *corpus.Batch, probeEvery int) {
	for _, d := range day.Docs {
		if probeEvery > 0 && len(b.src)%probeEvery == probeEvery-1 {
			b.addVisible(d, day.Day)
		} else {
			b.add(d, day.Day, "")
		}
	}
	b.emit(op{kind: opFlush})
}

// mix is a query-kind mix in percent; the remainder after bool and rank is
// phrase. Kinds are dealt from a deck, so every hundred queries hold
// exactly these shares.
type mix struct{ boolPct, rankPct int }

var defaultMix = mix{55, 40}

func (b *builder) query(m mix, warm bool) {
	d := b.kinds[m]
	if d == nil {
		d = &deck{shares: []int{m.boolPct, m.rankPct, 100 - m.boolPct - m.rankPct}}
		b.kinds[m] = d
	}
	kind := d.deal(b.q.rng)
	if !warm {
		// The first three measured queries are one of each kind, so even a
		// tiny test-scale script samples every query metric.
		if b.asked < 3 {
			kind = b.asked
		}
		b.asked++
	}
	switch kind {
	case 0:
		q, terms := b.q.boolean()
		b.emit(op{kind: opBool, text: q, terms: terms, warm: warm})
	case 1:
		q, terms := b.q.ranked()
		b.emit(op{kind: opRank, text: q, terms: terms, warm: warm})
	default:
		// A phrase that occurs: lifted from a live document. The rare
		// document with no usable pair is skipped for the next one.
		live := len(b.src) - int(b.oldest) + 1
		at := b.q.rng.Intn(live)
		for tries := 0; tries < live; tries, at = tries+1, (at+1)%live {
			if q, terms, ok := b.q.phrase(b.src[int(b.oldest)-1+at]); ok {
				b.emit(op{kind: opPhrase, text: q, terms: terms, warm: warm})
				return
			}
		}
	}
}

func (b *builder) queries(n int, m mix, warm bool) {
	for i := 0; i < n; i++ {
		b.query(m, warm)
	}
}

// reopenCycles emits n × (Open, first query, Close) on the closed index:
// the time from process start to first answer.
func (b *builder) reopenCycles(n int) {
	for i := 0; i < n; i++ {
		b.group = int32(i)
		b.emit(op{kind: opOpen})
		b.query(mix{50, 50}, false)
		b.emit(op{kind: opClose})
	}
	b.group = -1
}

// deleteOldest deletes the n oldest live documents.
func (b *builder) deleteOldest(n int) {
	for i := 0; i < n && int(b.oldest) <= len(b.s.docs); i++ {
		b.emit(op{kind: opDelete, doc: b.oldest})
		b.oldest++
	}
}

func (b *builder) step(k opKind) { b.emit(op{kind: k}) }
