package bench

import (
	"fmt"
	"time"

	"dualindex"
)

// opMedians folds the three repetitions' timings into one duration per op.
func opMedians(passes []*pass) []time.Duration {
	out := make([]time.Duration, len(passes[0].dur))
	for i := range out {
		out[i] = median3(passes[0].dur[i], passes[1].dur[i], passes[2].dur[i])
	}
	return out
}

// added is how many documents the timed region added.
func (t *timings) added() int { return len(t.byKind[opAdd]) }

// timings groups a timed region's per-op durations the way the metrics
// need them. Warm-up ops and the cold first query of a reopen cycle are
// left out of the query samples: the first is not measured at all, the
// second belongs to the reopen sample.
type timings struct {
	byKind  [numOpKinds][]float64 // seconds, op order
	visible []float64             // add + probe, seconds
	reopen  []float64             // open + first query per cycle, seconds
}

func (s *script) timings(dur []time.Duration) timings {
	var t timings
	cycle := int32(-1)
	for i := s.timedFrom; i < len(s.ops); i++ {
		o := &s.ops[i]
		d := dur[i-s.timedFrom].Seconds()
		if o.warm {
			continue
		}
		if o.group >= 0 {
			if o.kind == opOpen || o.kind.isQuery() {
				if o.group != cycle {
					cycle = o.group
					t.reopen = append(t.reopen, 0)
				}
				t.reopen[len(t.reopen)-1] += d
			}
			if o.kind == opOpen {
				t.byKind[opOpen] = append(t.byKind[opOpen], d)
			}
			continue
		}
		t.byKind[o.kind] = append(t.byKind[o.kind], d)
		if o.kind == opProbe { // its add is the op before it
			t.visible = append(t.visible, d+dur[i-1-s.timedFrom].Seconds())
		}
	}
	return t
}

func (t *timings) queries() []float64 {
	all := append([]float64(nil), t.byKind[opBool]...)
	all = append(all, t.byKind[opRank]...)
	return append(all, t.byKind[opPhrase]...)
}

// writeSeconds is the denominator of ingest_docs_per_s: everything the
// write path was asked to do.
func (t *timings) writeSeconds() float64 {
	return sum(t.byKind[opAdd]) + sum(t.byKind[opFlush]) + sum(t.byKind[opDelete]) + sum(t.byKind[opSweep])
}

// liveTextBytes is the text the index holds once the script has run:
// every added document not deleted.
func (s *script) liveTextBytes() int64 {
	dead := make(map[uint32]bool)
	for i := range s.ops {
		if s.ops[i].kind == opDelete {
			dead[s.ops[i].doc] = true
		}
	}
	var n int64
	for i, text := range s.docs {
		if !dead[uint32(i+1)] {
			n += int64(len(text))
		}
	}
	return n
}

// flushIO sums the read and write operations the timed flushes reported.
func flushIO(p *pass) (ops int64) {
	for _, b := range p.flushes {
		ops += b.ReadOps + b.WriteOps
	}
	return ops
}

// endToEnd computes the 14 end-to-end metrics from three untraced
// repetitions of the timed region and their per-op medians.
func (s *script) endToEnd(passes []*pass, med []time.Duration, setupSeconds float64) (Metrics, error) {
	t := s.timings(med)
	p := passes[0]
	for name, n := range map[string]int{
		"add": t.added(), "flush": len(t.byKind[opFlush]), "probe": len(t.visible),
		"bool": len(t.byKind[opBool]), "rank": len(t.byKind[opRank]), "phrase": len(t.byKind[opPhrase]),
		"sweep": len(t.byKind[opSweep]), "reopen": len(t.reopen), "mark": len(p.marks), "close": len(p.dirBytes),
	} {
		if n == 0 {
			return nil, fmt.Errorf("bench: timed region has no %s op; every workload must exercise every end-to-end metric", name)
		}
	}
	queries := t.queries()
	heap := make([]float64, len(passes))
	for i, q := range passes {
		heap[i] = (float64(q.marks[0].heapAlloc) - float64(q.baseHeap)) / (1 << 20)
	}

	m := Metrics{}
	m.set("setup_s", "s", setupSeconds)
	m.set("ingest_docs_per_s", "docs/s", float64(t.added())/t.writeSeconds())
	m.set("flush_ms_mean", "ms", 1e3*mean(t.byKind[opFlush]))
	m.set("add_visible_us_p50", "us", 1e6*quantile(t.visible, 0.5))
	m.set("queries_per_s", "1/s", float64(len(queries))/sum(queries))
	m.set("bool_ms_p50", "ms", 1e3*quantile(t.byKind[opBool], 0.5))
	m.set("rank_ms_p50", "ms", 1e3*quantile(t.byKind[opRank], 0.5))
	m.set("phrase_ms_p50", "ms", 1e3*quantile(t.byKind[opPhrase], 0.5))
	m.set("query_ms_p99", "ms", 1e3*quantile(queries, 0.99))
	m.set("reopen_ms_p50", "ms", 1e3*quantile(t.reopen, 0.5))
	m.set("sweep_ms_mean", "ms", 1e3*mean(t.byKind[opSweep]))
	m.set("index_bytes_per_text_byte", "ratio", float64(p.dirBytes[len(p.dirBytes)-1])/float64(s.liveTextBytes()))
	m.set("io_ops_per_doc", "ops/doc", float64(flushIO(p))/float64(t.added()))
	m.set("heap_live_mb", "MB", quantile(heap, 0.5))
	return m, nil
}

// counts are the numbers that must repeat exactly: across the three
// repetitions of one run, and across runs of one seed.
type counts struct {
	Docs        int
	FlushIO     int64
	Postings    int64
	Evictions   int
	IndexBytes  int64
	ReadOps     int64
	WriteOps    int64
	ReadBlocks  int64
	WriteBlocks int64
	LongLists   int
	Answers     uint64 // hash over every answer's count and hash
}

func (s *script) counts(p *pass) counts {
	c := counts{
		FlushIO: flushIO(p),
		ReadOps: p.io.readOps, WriteOps: p.io.writeOps,
		ReadBlocks: p.io.readBlocks, WriteBlocks: p.io.writeBlocks,
	}
	// A pass whose engine failed to open has no close or mark to read.
	if n := len(p.dirBytes); n > 0 {
		c.IndexBytes = p.dirBytes[n-1]
	}
	if len(p.marks) > 0 {
		c.LongLists = p.marks[0].stats.LongLists
	}
	for _, b := range p.flushes {
		c.Docs += b.Docs
		c.Postings += b.Postings
		c.Evictions += b.Evictions
	}
	h := fnvOffset
	for i := range p.ans {
		h.mix(uint64(p.ans[i].n))
		h.mix(p.ans[i].hash)
		for _, m := range p.ranked[i] {
			h.mix(uint64(m.Doc))
		}
	}
	c.Answers = uint64(h)
	return c
}

// verify replays the pass's ops on the model, in order, and checks every
// answer; the model's state carries over from whatever was replayed before
// (set-up ops first, then the timed region). Failures land in p.
func (s *script) verify(o *oracle, p *pass) {
	for i := p.from; i < p.from+len(p.dur); i++ {
		op := &s.ops[i]
		o.apply(op)
		switch op.kind {
		case opProbe:
			if got, want := p.ans[i-p.from], hashDocs([]uint32{op.doc}); got != want {
				p.fail(i, op, "visibility probe returned %d docs, want exactly doc %d", got.n, op.doc)
			}
			if want := o.expect(op); want.n != 1 {
				p.fail(i, op, "marker is not unique: model has %d docs", want.n)
			}
		case opBool, opPhrase:
			if got, want := p.ans[i-p.from], o.expect(op); got != want {
				p.fail(i, op, "got %d docs (hash %x), model has %d (hash %x)", got.n, got.hash, want.n, want.hash)
			}
		case opRank:
			if err := o.checkRanked(op.terms, p.ranked[i-p.from]); err != nil {
				p.fail(i, op, "%v", err)
			}
		}
	}
}

// sameAnswers reports ops whose answers differ between two passes.
func (s *script) sameAnswers(a, b *pass) error {
	for i := range a.ans {
		if a.ans[i] != b.ans[i] {
			return fmt.Errorf("op %d %q: answer differs between repetitions", a.from+i, s.ops[a.from+i].text)
		}
		if !sameMatches(a.ranked[i], b.ranked[i]) {
			return fmt.Errorf("op %d %q: ranking differs between repetitions", a.from+i, s.ops[a.from+i].text)
		}
	}
	return nil
}

func sameMatches(a, b []dualindex.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
