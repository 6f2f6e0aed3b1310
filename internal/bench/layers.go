package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dualindex/internal/corpus"
	"dualindex/internal/metrics"
)

// traced is the -trace 1 run: one untraced and one traced repetition of the
// timed region (their difference is the tracing overhead), the span
// invariant check, then the layer probes. It fills res.Metrics with the
// per-layer metrics; end-to-end metrics never come from here.
func (s *script) traced(cfg Config, res *Result, check func(*pass) *oracle, batches []*corpus.Batch, st stager) error {
	var passes [2]*pass
	for i, traced := range []bool{false, true} {
		dir, _, err := st.stage(fmt.Sprintf("trace%d", i))
		if err != nil {
			return err
		}
		passes[i] = s.run(dir, s.timedFrom, len(s.ops), traced)
		st.remove(dir)
	}
	plain, tr := passes[0], passes[1]
	model := check(tr)
	res.note(plain)
	res.note(tr)
	// Tracing must observe, not change: same answers, same I/O counts.
	if err := s.sameAnswers(plain, tr); err != nil {
		res.failf("traced pass: %v", err)
	}
	c := s.counts(plain)
	res.Counts = &c
	if b := s.counts(tr); c != b {
		res.failf("counts differ between untraced and traced pass: %+v vs %+v", c, b)
	}
	if _, err := selfTimes(tr.spans.spans); err != nil {
		res.failf("span invariant: %v", err)
	}
	if cfg.SpansPath != "" {
		f, err := os.Create(cfg.SpansPath) //nolint:ioboundary // the span file the user asked for
		if err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		if err := tr.spans.write(f); err != nil {
			f.Close()
			return fmt.Errorf("bench: writing spans: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("bench: writing spans: %w", err)
		}
	}

	m := res.Metrics
	s.probeLexer(m)
	probeDir := filepath.Join(st.root, "probe")
	if err := os.MkdirAll(probeDir, 0o755); err != nil { //nolint:ioboundary // the docstore probe's own directory
		return fmt.Errorf("bench: %w", err)
	}
	defer st.remove(probeDir)
	for _, probe := range []func() error{
		func() error { return s.probeDocstore(m, probeDir) },
		func() error { return s.probeCore(m, batches) },
		func() error { return s.probeQuery(m) },
		func() error { return model.probePostings(m) },
	} {
		if err := probe(); err != nil {
			res.failf("%v", err)
		}
	}
	s.perLayer(m, plain, tr)
	res.Correct = res.Failed == 0
	return nil
}

// perLayer derives the per-layer metrics of the traced pass. Probe metrics
// already in m (lexer, docstore) are read for the engine's self time.
func (s *script) perLayer(m Metrics, plain, tr *pass) {
	t := s.timings(tr.dur)
	lanes := float64(max(1, min(s.opts.Shards, s.opts.Workers)))
	per := func(total float64, n int) float64 { return total / float64(max(n, 1)) }

	// engine: spans around the public calls.
	lex := m["lexer.tokenize_us_per_doc"].Value
	if s.opts.LiveSearch {
		lex = m["lexer.positions_us_per_doc"].Value
	}
	m.set("engine.add_us_p50", "us", 1e6*quantile(t.byKind[opAdd], 0.5))
	m.set("engine.add_self_us_per_doc", "us",
		1e6*mean(t.byKind[opAdd])-lex-m["docstore.put_us_per_doc"].Value)
	m.set("engine.delete_us_per_doc", "us", 1e6*mean(t.byKind[opDelete]))
	m.set("engine.sweep_ms_p50", "ms", 1e3*quantile(t.byKind[opSweep], 0.5))

	// core: the phases FlushBatch reports, summed over shards.
	var plan, long, bucket, checkpoint, release, self, evictions, posted float64
	totals := make([]float64, 0, len(tr.flushes))
	flushDur := tr.flushDurations(s)
	for i, b := range tr.flushes {
		ph := b.Phases
		plan += ms(ph.Plan)
		long += ms(ph.LongApply)
		bucket += ms(ph.BucketFlush)
		checkpoint += ms(ph.Checkpoint)
		release += ms(ph.Release)
		totals = append(totals, ms(ph.Total()))
		self += ms(flushDur[i]) - ms(ph.Total())/lanes
		evictions += float64(b.Evictions)
		posted += float64(b.Postings)
	}
	n := len(tr.flushes)
	m.set("engine.flush_self_ms_per_flush", "ms", per(self, n))
	m.set("core.plan_ms_per_flush", "ms", per(plan, n))
	m.set("core.long_apply_ms_per_flush", "ms", per(long, n))
	m.set("core.bucket_flush_ms_per_flush", "ms", per(bucket, n))
	m.set("core.checkpoint_ms_per_flush", "ms", per(checkpoint, n))
	m.set("core.release_ms_per_flush", "ms", per(release, n))
	m.set("core.flush_ms_p90", "ms", quantile(totals, 0.9))
	m.set("core.evictions_per_flush", "count", per(evictions, n))
	m.set("core.postings_per_flush", "count", per(posted, n))

	// disk: what the block store was asked to move, per thousand documents.
	kdocs := float64(max(t.added(), 1)) / 1000
	m.set("disk.write_ops_per_kdoc", "ops", float64(tr.io.writeOps)/kdocs)
	m.set("disk.read_ops_per_kdoc", "ops", float64(tr.io.readOps)/kdocs)
	m.set("disk.write_blocks_per_kdoc", "blocks", float64(tr.io.writeBlocks)/kdocs)
	m.set("disk.read_blocks_per_kdoc", "blocks", float64(tr.io.readBlocks)/kdocs)

	// longlist and bucket: the index's physical shape at its fullest.
	shape := tr.marks[0].stats
	m.set("longlist.utilization", "ratio", shape.Utilization)
	m.set("longlist.avg_reads_per_list", "count", shape.AvgReadsPerList)
	m.set("longlist.long_lists", "count", float64(shape.LongLists))
	m.set("bucket.load_factor", "ratio", shape.MaxBucketLoadFactor)

	// persist: opening, and what is on disk after the last Close.
	m.set("persist.open_ms_p50", "ms", 1e3*quantile(t.byKind[opOpen], 0.5))
	m.set("persist.vocab_bytes", "bytes", float64(tr.dirKinds["vocab"]))
	m.set("persist.docs_log_bytes", "bytes", float64(tr.dirKinds["docs"]))
	m.set("persist.disk_bytes", "bytes", float64(tr.dirKinds["disk"]))

	// query: the engine's own phase histograms, then I/O per query.
	for _, phase := range []string{"route", "fetch", "score", "merge"} {
		m.set("query."+phase+"_ms_p50", "ms", 1e3*phaseQuantile(tr.hists, phase, 0.5))
	}
	watched := s.countKind(opBool) + s.countKind(opRank) + s.countKind(opPhrase) + s.countKind(opProbe)
	m.set("query.read_blocks_per_query", "blocks", per(float64(tr.queryIO.readBlocks), watched))
	m.set("query.read_ops_per_query", "ops", per(float64(tr.queryIO.readOps), watched))
	hitRate := 0.0
	if looked := tr.queryIO.cacheHits + tr.queryIO.cacheMisses; looked > 0 {
		hitRate = float64(tr.queryIO.cacheHits) / float64(looked)
	}
	m.set("cache.hit_rate", "ratio", hitRate)
	m.set("cache.evictions_per_query", "count", per(float64(tr.queryIO.cacheEvictions), watched))

	// runtime: allocation per call and the collector's share.
	adds := tr.allocs[opAdd]
	m.set("runtime.add_allocs_per_doc", "count", per(float64(adds.objects), t.added()))
	m.set("runtime.add_bytes_per_doc", "bytes", per(float64(adds.bytes), t.added()))
	for _, k := range []opKind{opBool, opRank, opPhrase} {
		a, n := tr.allocs[k], s.countKind(k)
		m.set("runtime.query_allocs_per_op."+opNames[k], "count", per(float64(a.objects), n))
		m.set("runtime.query_bytes_per_op."+opNames[k], "bytes", per(float64(a.bytes), n))
	}
	m.set("runtime.gc_cpu_fraction", "ratio", tr.gcCPU/max(tr.totalCPU, 1e-9))
	m.set("runtime.gc_pause_ms_total", "ms", float64(tr.gcPauseNs)/1e6)
	m.set("runtime.num_gc", "count", float64(tr.numGC))

	// trace: what the instrumentation itself cost, over the engine calls.
	m.set("trace.overhead_pct", "%", 100*(s.callSeconds(tr)-s.callSeconds(plain))/s.callSeconds(plain))
}

// flushDurations returns the pass's flush op durations in flush order.
func (p *pass) flushDurations(s *script) []time.Duration {
	var out []time.Duration
	for i, d := range p.dur {
		if s.ops[p.from+i].kind == opFlush {
			out = append(out, d)
		}
	}
	return out
}

// countKind counts the timed region's ops of one kind, warm-up and reopen
// cycles included: allocation deltas are taken around every one of them.
func (s *script) countKind(k opKind) int {
	n := 0
	for i := s.timedFrom; i < len(s.ops); i++ {
		if s.ops[i].kind == k {
			n++
		}
	}
	return n
}

// callSeconds sums a pass's time inside public engine calls.
func (s *script) callSeconds(p *pass) float64 {
	var total time.Duration
	for i, d := range p.dur {
		if k := s.ops[p.from+i].kind; k != opMark && k != opCheck {
			total += d
		}
	}
	return total.Seconds()
}

// phaseQuantile merges the query_phase_seconds histograms of one phase
// (fetch and score have one series per shard) and reads a quantile off the
// merged buckets.
func phaseQuantile(hists map[string]metrics.HistogramSnapshot, phase string, q float64) float64 {
	var merged metrics.HistogramSnapshot
	for name, h := range hists {
		if !strings.HasPrefix(name, `query_phase_seconds{phase="`+phase+`"`) {
			continue
		}
		if merged.Counts == nil {
			merged.Bounds = h.Bounds
			merged.Counts = make([]int64, len(h.Counts))
		}
		for i, c := range h.Counts {
			merged.Counts[i] += c
		}
	}
	if merged.Counts == nil {
		return 0
	}
	return merged.Quantile(q)
}
