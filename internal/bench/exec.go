package bench

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"time"

	"dualindex"
	"dualindex/internal/metrics"
)

// mark is an untimed sample of the engine's shape and the process's live
// heap, taken where a workload's index is at its fullest.
type mark struct {
	heapAlloc uint64 // after two GCs
	stats     dualindex.Stats
}

// ioCounts are the engine's I/O and cache counters: one Stats reading, a
// difference of two, or a sum over every engine instance a pass opened
// (counters restart at zero on Open).
type ioCounts struct {
	readOps, writeOps, readBlocks, writeBlocks int64
	cacheHits, cacheMisses, cacheEvictions     int64
}

func ioOf(s dualindex.Stats) ioCounts {
	return ioCounts{
		s.ReadOps, s.WriteOps, s.ReadBlocks, s.WriteBlocks,
		s.CacheHits, s.CacheMisses, s.CacheEvictions,
	}
}

// plus returns c + sign·d, field by field.
func (c ioCounts) plus(d ioCounts, sign int64) ioCounts {
	return ioCounts{
		c.readOps + sign*d.readOps, c.writeOps + sign*d.writeOps,
		c.readBlocks + sign*d.readBlocks, c.writeBlocks + sign*d.writeBlocks,
		c.cacheHits + sign*d.cacheHits, c.cacheMisses + sign*d.cacheMisses,
		c.cacheEvictions + sign*d.cacheEvictions,
	}
}

// allocDelta accumulates heap allocation counts attributed to one op kind.
type allocDelta struct{ objects, bytes uint64 }

// pass is everything one execution of a script section observed. Slices
// indexed by op are relative to the section's first op.
type pass struct {
	from     int
	dur      []time.Duration
	ans      []answer            // boolean, phrase and probe answers
	ranked   [][]dualindex.Match // ranked answers
	flushes  []dualindex.BatchStats
	marks    []mark
	dirBytes []int64          // total bytes under the directory after each Close
	dirKinds map[string]int64 // by-kind sizes after the last Close
	io       ioCounts         // summed over the pass's engine instances
	baseHeap uint64           // live heap before the first Open
	started  time.Time        // when the first op began, after the baseline was taken
	failed   int
	failures []string // first few, for the report

	// Traced passes only.
	spans     *spanLog
	allocs    [numOpKinds]allocDelta
	queryIO   ioCounts // Stats deltas around query ops only
	hists     map[string]metrics.HistogramSnapshot
	gcCPU     float64 // seconds
	totalCPU  float64 // seconds
	numGC     uint32
	gcPauseNs uint64
}

func (p *pass) fail(i int, o *op, format string, args ...any) {
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures,
			fmt.Sprintf("op %d %s %q: %s", i, opNames[o.kind], o.text, fmt.Sprintf(format, args...)))
	}
}

// cpuSamples are the runtime's CPU-time classes behind runtime.gc_cpu_fraction.
var cpuSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readAllocs(s []rtmetrics.Sample) allocDelta {
	rtmetrics.Read(s)
	return allocDelta{objects: s[0].Value.Uint64(), bytes: s[1].Value.Uint64()}
}

// liveHeap reports HeapAlloc after two collections: the first frees what
// died, the second what finalizers and sweeping released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// run executes ops[from:to] against an index directory, timing every
// public engine call. With traced set it also turns on the engine's own
// metrics and trace ring, records a span per call, and samples allocation
// and I/O counters at the same boundaries; an untraced pass does none of
// that, and end-to-end metrics only ever come from untraced passes.
func (s *script) run(dir string, from, to int, traced bool) *pass {
	n := to - from
	p := &pass{
		from:   from,
		dur:    make([]time.Duration, n),
		ans:    make([]answer, n),
		ranked: make([][]dualindex.Match, n),
	}
	opts := s.opts
	opts.Dir = dir
	lanes := max(1, min(opts.Shards, opts.Workers))
	var (
		allocSamples []rtmetrics.Sample
		memBefore    runtime.MemStats
		repSpan      int
		phaseSpan    int
		lastPhase    = -1
	)
	if traced {
		opts.Metrics = true
		opts.TraceBuffer = 4096
		p.spans = &spanLog{}
		p.hists = make(map[string]metrics.HistogramSnapshot)
		allocSamples = []rtmetrics.Sample{
			{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"},
		}
	}
	p.baseHeap = liveHeap()
	if traced {
		runtime.ReadMemStats(&memBefore)
		rtmetrics.Read(cpuSamples)
		p.gcCPU, p.totalCPU = -cpuSamples[0].Value.Float64(), -cpuSamples[1].Value.Float64()
		p.spans.t0 = time.Now()
		repSpan = p.spans.add(0, -1, "repetition", p.spans.t0, p.spans.t0)
	}

	p.started = time.Now()
	var eng *dualindex.Engine
	defer func() {
		if eng != nil { // a failed script left it open
			eng.Close()
		}
	}()
	for i := from; i < to; i++ {
		o := &s.ops[i]
		if eng == nil && o.kind != opOpen {
			p.fail(i, o, "no open engine")
			continue
		}
		var (
			err     error
			a0      allocDelta
			before  ioCounts
			docs    []dualindex.DocID
			batch   dualindex.BatchStats
			watchIO = traced && (o.kind.isQuery() || o.kind == opProbe)
		)
		if watchIO {
			before = ioOf(eng.Stats())
		}
		if traced {
			a0 = readAllocs(allocSamples)
		}
		t0 := time.Now()
		switch o.kind {
		case opAdd:
			if id := eng.AddDocument(o.text); uint32(id) != o.doc {
				err = fmt.Errorf("assigned DocID %d, want %d", id, o.doc)
			}
		case opProbe, opBool:
			docs, err = eng.SearchBoolean(o.text)
		case opPhrase:
			docs, err = eng.SearchPhrase(o.text)
		case opRank:
			p.ranked[i-from], err = eng.Query(o.text, rankK)
		case opFlush:
			batch, err = eng.FlushBatch()
		case opDelete:
			eng.Delete(dualindex.DocID(o.doc))
		case opSweep:
			err = eng.Sweep()
		case opOpen:
			eng, err = dualindex.Open(opts)
		case opClose:
			if traced {
				p.mergeHists(eng)
			}
			p.io = p.io.plus(ioOf(eng.Stats()), +1)
			t0 = time.Now()
			err = eng.Close()
		case opCheck:
			err = eng.CheckConsistency()
		case opMark:
			p.marks = append(p.marks, mark{heapAlloc: liveHeap(), stats: eng.Stats()})
		}
		t1 := time.Now()
		p.dur[i-from] = t1.Sub(t0)
		if err != nil {
			p.fail(i, o, "%v", err)
		}

		switch o.kind {
		case opProbe, opBool, opPhrase:
			p.ans[i-from] = hashDocs(docs)
		case opRank:
			// The engine's top k alias the array of every scored candidate;
			// keeping them as returned would pin megabytes per query.
			p.ranked[i-from] = slices.Clone(p.ranked[i-from])
		case opFlush:
			p.flushes = append(p.flushes, batch)
		case opClose:
			eng = nil
			total, kinds, err := dirSizes(dir)
			if err != nil {
				p.fail(i, o, "weighing %s: %v", dir, err)
			}
			p.dirBytes = append(p.dirBytes, total)
			p.dirKinds = kinds
		}
		if !traced {
			continue
		}
		a1 := readAllocs(allocSamples)
		p.allocs[o.kind].objects += a1.objects - a0.objects
		p.allocs[o.kind].bytes += a1.bytes - a0.bytes
		if watchIO {
			p.queryIO = p.queryIO.plus(ioOf(eng.Stats()), +1).plus(before, -1)
		}
		if int(o.phase) != lastPhase {
			lastPhase = int(o.phase)
			phaseSpan = p.spans.add(repSpan, -1, s.phases[o.phase], t0, t0)
		}
		id := p.spans.add(phaseSpan, i, opNames[o.kind], t0, t1)
		p.spans.extend(phaseSpan, t1)
		p.spans.extend(repSpan, t1)
		if o.kind == opFlush {
			// BatchStats.Phases sums over shards that flushed side by side;
			// dividing by the lanes they ran on gives wall-clock children
			// that cannot outlast the FlushBatch call around them.
			at := t0
			ph := batch.Phases
			for _, c := range []struct {
				name string
				d    time.Duration
			}{
				{"core.plan", ph.Plan}, {"core.long_apply", ph.LongApply},
				{"core.bucket_flush", ph.BucketFlush}, {"core.checkpoint", ph.Checkpoint},
				{"core.release", ph.Release},
			} {
				end := at.Add(c.d / time.Duration(lanes))
				p.spans.add(id, -1, c.name, at, end)
				at = end
			}
		}
	}
	if traced {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		p.numGC = m.NumGC - memBefore.NumGC
		p.gcPauseNs = m.PauseTotalNs - memBefore.PauseTotalNs
		rtmetrics.Read(cpuSamples)
		p.gcCPU += cpuSamples[0].Value.Float64()
		p.totalCPU += cpuSamples[1].Value.Float64()
	}
	return p
}

// mergeHists folds the closing engine's query-phase histograms into the
// pass's: a pass may open several engine instances, each with a registry
// of its own.
func (p *pass) mergeHists(eng *dualindex.Engine) {
	snap, _ := eng.Metrics().Snapshot()["histograms"].(map[string]metrics.HistogramSnapshot)
	for name, h := range snap {
		have, ok := p.hists[name]
		if !ok {
			h.Counts = append([]int64(nil), h.Counts...)
			p.hists[name] = h
			continue
		}
		for i := range h.Counts {
			have.Counts[i] += h.Counts[i]
		}
		have.Count += h.Count
		have.Sum += h.Sum
		p.hists[name] = have
	}
}
