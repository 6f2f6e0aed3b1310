package dualindex

import (
	"fmt"
	"sync"
	"time"

	"dualindex/internal/cache"
	"dualindex/internal/core"
	"dualindex/internal/disk"
	"dualindex/internal/metrics"
	"dualindex/internal/trace"
)

// This file is the engine's observability layer: it wires the hot paths —
// per-shard flush phases, per-query phases, cache and per-disk I/O — into
// the metrics registry (Options.Metrics), the span recorder
// (Options.TraceBuffer) and the slow-query log (Options.SlowQuery).
//
// The design constraint is that instrumentation must be free when disabled
// and cheap when enabled: a disabled engine carries a nil *observer and nil
// per-shard handles, and every method here is a no-op on a nil receiver —
// no clock reads, no allocation, one predictable branch. Enabled, the hot
// paths touch preallocated handles only (atomic adds and a ring append);
// the registry's maps are consulted once, at Open. Nothing here touches
// the disk array, so the simulated I/O traces pinned by
// TestSingleShardTraceMatchesCore are byte-identical with metrics on.

// SlowQueryRecord is one entry of the slow-query log: a query whose total
// latency exceeded Options.SlowQuery.
type SlowQueryRecord struct {
	Time    time.Time     `json:"time"`
	Kind    string        `json:"kind"` // one of queryKinds ("boolean", "vector", "query", ...)
	Query   string        `json:"query"`
	Dur     time.Duration `json:"dur_ns"`
	Results int           `json:"results"`
}

// observer is the engine-level half of the instrumentation: the registry,
// the span recorder, the engine-wide query metrics and the slow-query ring.
type observer struct {
	reg *metrics.Registry // nil unless Options.Metrics
	rec *trace.Recorder   // nil unless Options.TraceBuffer > 0

	slowThreshold time.Duration
	slowTotal     *metrics.Counter

	queryRoute *metrics.Histogram            // parse + fan-out planning
	queryMerge *metrics.Histogram            // k-way merge of shard answers
	queryTotal map[string]*metrics.Histogram // kind → end-to-end latency
	queryCount map[string]*metrics.Counter   // kind → queries served
	queryFail  map[string]*metrics.Counter   // kind → queries that returned an error

	reshards       *metrics.Counter // completed reshards
	reshardDocs    *metrics.Counter // documents migrated by reshards
	reshardBatches *metrics.Counter // migration flush batches

	slowMu   sync.Mutex
	slow     []SlowQueryRecord // ring, capacity slowQueryLogCap
	slowNext int
}

// slowQueryLogCap bounds the slow-query ring: once full, each new slow
// query evicts the oldest.
const slowQueryLogCap = 128

// newObserver builds the observer an Options set asks for, or nil when
// every observability feature is off.
func newObserver(opts Options) *observer {
	if !opts.Metrics && opts.SlowQuery <= 0 && opts.TraceBuffer <= 0 {
		return nil
	}
	o := &observer{slowThreshold: opts.SlowQuery}
	if opts.Metrics {
		o.reg = metrics.NewRegistry("dualindex")
	}
	if opts.TraceBuffer > 0 {
		o.rec = trace.New(opts.TraceBuffer)
	}
	// With reg nil these come back nil and every Observe is a no-op — the
	// trace/slow-log features still work without the registry.
	o.queryRoute = o.reg.Histogram(`query_phase_seconds{phase="route"}`, nil)
	o.queryMerge = o.reg.Histogram(`query_phase_seconds{phase="merge"}`, nil)
	o.queryTotal = make(map[string]*metrics.Histogram, len(queryKinds))
	o.queryCount = make(map[string]*metrics.Counter, len(queryKinds))
	o.queryFail = make(map[string]*metrics.Counter, len(queryKinds))
	for _, kind := range queryKinds {
		o.queryTotal[kind] = o.reg.Histogram(`query_seconds{kind="`+kind+`"}`, nil)
		o.queryCount[kind] = o.reg.Counter(`queries_total{kind="` + kind + `"}`)
		o.queryFail[kind] = o.reg.Counter(`queries_failed_total{kind="` + kind + `"}`)
	}
	o.slowTotal = o.reg.Counter("slow_queries_total")
	o.reshards = o.reg.Counter("reshards_total")
	o.reshardDocs = o.reg.Counter("reshard_docs_total")
	o.reshardBatches = o.reg.Counter("reshard_batches_total")
	return o
}

// now reads the clock only on an instrumented engine; the zero time it
// otherwise returns makes downstream observe calls no-ops.
func (o *observer) now() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeReshard records one completed reshard: the migrated-document and
// batch counters plus a "reshard" trace phase covering the whole
// migration+commit window.
func (o *observer) observeReshard(start time.Time, st ReshardStats) {
	if o == nil {
		return
	}
	o.reshards.Inc()
	o.reshardDocs.Add(int64(st.Docs))
	o.reshardBatches.Add(int64(st.Batches))
	o.rec.RecordAt("engine", "reshard", fmt.Sprintf(
		"from=%d to=%d docs=%d batches=%d skipped=%d",
		st.FromShards, st.ToShards, st.Docs, st.Batches, st.Skipped),
		start, time.Since(start))
}

// observeReshardStream records the migration's streaming phase — every
// live document fetched, re-placed and applied to the staged shards — as a
// trace span.
func (o *observer) observeReshardStream(docs, skipped int, start time.Time) {
	if o == nil {
		return
	}
	o.rec.RecordAt("engine", "reshard.stream",
		fmt.Sprintf("docs=%d skipped=%d", docs, skipped), start, time.Since(start))
}

// flushPhaseNames are the five flush phases, in execution order, matching
// the core.UpdateStats duration fields.
var flushPhaseNames = [5]string{"plan", "long_apply", "bucket_flush", "checkpoint", "release"}

// shardObs holds one shard's preallocated metric handles, so recording on
// the flush and query paths never goes through the registry's maps.
type shardObs struct {
	o     *observer
	scope string // "shard-<i>"

	flushTotal *metrics.Histogram
	flushPhase [5]*metrics.Histogram // indexed like flushPhaseNames
	flushes    *metrics.Counter
	flushDocs  *metrics.Counter
	flushPosts *metrics.Counter
	flushEvict *metrics.Counter

	queryFetch *metrics.Histogram
	queryScore *metrics.Histogram
}

// shardObs builds shard i's handle set; nil on a nil observer.
func (o *observer) shardObs(i int) *shardObs {
	if o == nil {
		return nil
	}
	shard := fmt.Sprintf("%d", i)
	so := &shardObs{
		o:          o,
		scope:      "shard-" + shard,
		flushTotal: o.reg.Histogram(`flush_seconds{shard="`+shard+`"}`, nil),
		flushes:    o.reg.Counter(`flushes_total{shard="` + shard + `"}`),
		flushDocs:  o.reg.Counter(`flush_docs_total{shard="` + shard + `"}`),
		flushPosts: o.reg.Counter(`flush_postings_total{shard="` + shard + `"}`),
		flushEvict: o.reg.Counter(`flush_evictions_total{shard="` + shard + `"}`),
		queryFetch: o.reg.Histogram(`query_phase_seconds{phase="fetch",shard="`+shard+`"}`, nil),
		queryScore: o.reg.Histogram(`query_phase_seconds{phase="score",shard="`+shard+`"}`, nil),
	}
	for p, name := range flushPhaseNames {
		so.flushPhase[p] = o.reg.Histogram(
			`flush_phase_seconds{phase="`+name+`",shard="`+shard+`"}`, nil)
	}
	return so
}

// now reads the clock only when this shard is instrumented; the zero time
// it otherwise returns makes every downstream observe call a no-op.
func (so *shardObs) now() time.Time {
	if so == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeFlush records one applied batch: the five phase durations from the
// core's UpdateStats, the end-to-end flush latency, and the batch counters.
// Each phase also becomes one trace span (back-dated from the phase
// durations, so spans abut the way the phases ran).
func (so *shardObs) observeFlush(start time.Time, st core.UpdateStats, docs int) {
	if so == nil {
		return
	}
	total := time.Since(start)
	so.flushTotal.ObserveDuration(total)
	durs := [5]time.Duration{st.PlanDur, st.LongApplyDur, st.BucketFlushDur, st.CheckpointDur, st.ReleaseDur}
	for p, d := range durs {
		so.flushPhase[p].ObserveDuration(d)
	}
	so.flushes.Inc()
	so.flushDocs.Add(int64(docs))
	so.flushPosts.Add(st.Postings)
	so.flushEvict.Add(int64(st.Evictions))
	if so.o.rec != nil {
		at := start
		for p, d := range durs {
			so.o.rec.RecordAt(so.scope, "flush."+flushPhaseNames[p], "", at, d)
			at = at.Add(d)
		}
		so.o.rec.RecordAt(so.scope, "flush", fmt.Sprintf(
			"docs=%d words=%d postings=%d evictions=%d r=%d w=%d",
			docs, st.Words, st.Postings, st.Evictions, st.ReadOps, st.WriteOps),
			start, total)
	}
}

// observeFetch records the query fetch phase (term-list prefetch) begun at
// t0 and starts the score phase, returning its start time.
func (so *shardObs) observeFetch(t0 time.Time) time.Time {
	if so == nil {
		return time.Time{}
	}
	now := time.Now()
	d := now.Sub(t0)
	so.queryFetch.ObserveDuration(d)
	so.o.rec.RecordAt(so.scope, "query.fetch", "", t0, d)
	return now
}

// observeScore records the query score phase (boolean evaluation or vector
// ranking) begun at t0.
func (so *shardObs) observeScore(t0 time.Time) {
	if so == nil {
		return
	}
	d := time.Since(t0)
	so.queryScore.ObserveDuration(d)
	so.o.rec.RecordAt(so.scope, "query.score", "", t0, d)
}

// queryKinds are the engine's query entry points: SearchBoolean, SearchVector,
// SearchPhrase and the ranked Query. Each gets its own latency histogram,
// served counter and failed counter; the per-phase histograms
// (query_phase_seconds) stay unlabelled by kind, shared across all of them.
var queryKinds = []string{"boolean", "vector", "phrase", "query"}

// queryObs measures one engine-level query: route → (per-shard work) →
// merge, then the total with slow-query bookkeeping. The zero queryObs —
// what a disabled engine gets — is inert.
type queryObs struct {
	o        *observer
	kind     string
	t0, last time.Time
}

// beginQuery starts measuring a query of the given kind; inert on a nil
// observer.
func (o *observer) beginQuery(kind string) queryObs {
	if o == nil {
		return queryObs{}
	}
	now := time.Now()
	return queryObs{o: o, kind: kind, t0: now, last: now}
}

// routeDone marks the end of the route phase (parse + plan + fan-out
// planning).
func (q *queryObs) routeDone() {
	if q.o == nil {
		return
	}
	now := time.Now()
	d := now.Sub(q.last)
	q.o.queryRoute.ObserveDuration(d)
	q.o.rec.RecordAt("engine", "query.route", "kind="+q.kind, q.last, d)
	q.last = now
}

// mergeStart marks the start of the merge phase (the fan-out in between is
// covered by the per-shard fetch/score spans).
func (q *queryObs) mergeStart() {
	if q.o == nil {
		return
	}
	q.last = time.Now()
}

// finish records the merge phase and the end-to-end query, counting it and
// feeding the slow-query log when the total crosses the threshold.
func (q *queryObs) finish(text string, results int) {
	if q.o == nil {
		return
	}
	now := time.Now()
	mergeDur := now.Sub(q.last)
	q.o.queryMerge.ObserveDuration(mergeDur)
	q.o.rec.RecordAt("engine", "query.merge", "kind="+q.kind, q.last, mergeDur)
	total := now.Sub(q.t0)
	q.o.queryTotal[q.kind].ObserveDuration(total)
	q.o.queryCount[q.kind].Inc()
	q.o.rec.RecordAt("engine", "query", fmt.Sprintf("kind=%s results=%d", q.kind, results), q.t0, total)
	if q.o.slowThreshold > 0 && total >= q.o.slowThreshold {
		q.o.recordSlow(SlowQueryRecord{
			Time: q.t0, Kind: q.kind, Query: text, Dur: total, Results: results,
		})
	}
}

// fail counts a query that returns err instead of an answer — a parse,
// plan or fan-out error — and returns err.
func (q *queryObs) fail(err error) error {
	if q.o != nil {
		q.o.queryFail[q.kind].Inc()
	}
	return err
}

// recordSlow appends to the slow-query ring and emits the slow-query
// signals (counter, span).
func (o *observer) recordSlow(r SlowQueryRecord) {
	o.slowTotal.Inc()
	o.rec.RecordAt("engine", "query.slow", fmt.Sprintf("kind=%s query=%q", r.Kind, r.Query), r.Time, r.Dur)
	o.slowMu.Lock()
	if len(o.slow) < slowQueryLogCap {
		o.slow = append(o.slow, r)
	} else {
		o.slow[o.slowNext] = r
		o.slowNext = (o.slowNext + 1) % slowQueryLogCap
	}
	o.slowMu.Unlock()
}

// slowQueries returns the logged slow queries, oldest first.
func (o *observer) slowQueries() []SlowQueryRecord {
	if o == nil {
		return nil
	}
	o.slowMu.Lock()
	defer o.slowMu.Unlock()
	out := make([]SlowQueryRecord, 0, len(o.slow))
	out = append(out, o.slow[o.slowNext:]...)
	out = append(out, o.slow[:o.slowNext]...)
	return out
}

// Metrics returns the engine's metrics registry, or nil when
// Options.Metrics is off. The registry is live: scraping it (see
// internal/obshttp) reads the current counters.
func (e *Engine) Metrics() *metrics.Registry {
	if e.obs == nil {
		return nil
	}
	return e.obs.reg
}

// Tracer returns the engine's span recorder, or nil when
// Options.TraceBuffer is 0.
func (e *Engine) Tracer() *trace.Recorder {
	if e.obs == nil {
		return nil
	}
	return e.obs.rec
}

// SlowQueries returns the slow-query log, oldest first: every query whose
// end-to-end latency met Options.SlowQuery, up to the last 128 entries.
func (e *Engine) SlowQueries() []SlowQueryRecord {
	return e.obs.slowQueries()
}

// shardAt returns shard i, or nil when no such shard exists — the
// scrape-time accessor behind the registered gauge funcs, which look the
// shard up on every scrape so a reshard swap retargets them automatically
// (and a shard index retired by a shrink reads as absent, not stale).
func (e *Engine) shardAt(i int) *shard {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	if i < 0 || i >= len(e.shards) {
		return nil
	}
	return e.shards[i]
}

// registerShardFuncs exports the per-shard scrape-time gauges — cache
// counters, per-disk I/O counters, bucket load and pending documents —
// into the registry. Called from Open after the shards exist and again
// after a reshard grows the shard count. The funcs resolve the shard at
// scrape time (shardAt), so re-registration is idempotent and a retired
// shard index reports zero.
func (e *Engine) registerShardFuncs() {
	reg := e.Metrics()
	if reg == nil {
		return
	}
	e.stateMu.RLock()
	n := len(e.shards)
	e.stateMu.RUnlock()
	for i := 0; i < n; i++ {
		i := i
		shard := fmt.Sprintf("%d", i)
		reg.RegisterFunc(`pending_docs{shard="`+shard+`"}`,
			func() float64 {
				s := e.shardAt(i)
				if s == nil {
					return 0
				}
				docs, _ := s.numPending()
				return float64(docs)
			})
		reg.RegisterFunc(`pending_postings{shard="`+shard+`"}`,
			func() float64 {
				s := e.shardAt(i)
				if s == nil {
					return 0
				}
				_, postings := s.numPending()
				return float64(postings)
			})
		reg.RegisterFunc(`bucket_load_factor{shard="`+shard+`"}`,
			func() float64 {
				s := e.shardAt(i)
				if s == nil {
					return 0
				}
				return s.bucketLoadFactor()
			})
		reg.RegisterFunc(`deleted_docs{shard="`+shard+`"}`,
			func() float64 {
				s := e.shardAt(i)
				if s == nil {
					return 0
				}
				return float64(s.deletedCount())
			})
		reg.RegisterFunc(`docs_indexed{shard="`+shard+`"}`,
			func() float64 {
				s := e.shardAt(i)
				if s == nil {
					return 0
				}
				return float64(s.numDocsIndexed())
			})
		reg.RegisterFunc(`dead_fraction{shard="`+shard+`"}`,
			func() float64 {
				s := e.shardAt(i)
				if s == nil {
					return 0
				}
				return deadFraction(s.numDocsIndexed(), s.deletedCount())
			})
		if e.opts.CacheBlocks > 0 {
			cacheStat := func(pick func(cache.Stats) int64) func() float64 {
				return func() float64 {
					s := e.shardAt(i)
					if s == nil || s.cache == nil {
						return 0
					}
					return float64(pick(s.cache.Stats()))
				}
			}
			reg.RegisterFunc(`cache_hits_total{shard="`+shard+`"}`,
				cacheStat(func(cs cache.Stats) int64 { return cs.Hits }))
			reg.RegisterFunc(`cache_misses_total{shard="`+shard+`"}`,
				cacheStat(func(cs cache.Stats) int64 { return cs.Misses }))
			reg.RegisterFunc(`cache_evictions_total{shard="`+shard+`"}`,
				cacheStat(func(cs cache.Stats) int64 { return cs.Evictions }))
		}
		if e.opts.Codec != "" && e.opts.Codec != CodecRaw {
			codecStat := func(pick func(raw, enc int64) float64) func() float64 {
				return func() float64 {
					s := e.shardAt(i)
					if s == nil {
						return 0
					}
					return pick(s.compressionBytes())
				}
			}
			reg.RegisterFunc(`codec_raw_bytes_total{shard="`+shard+`"}`,
				codecStat(func(raw, _ int64) float64 { return float64(raw) }))
			reg.RegisterFunc(`codec_encoded_bytes_total{shard="`+shard+`"}`,
				codecStat(func(_, enc int64) float64 { return float64(enc) }))
			reg.RegisterFunc(`codec_compression_ratio{shard="`+shard+`"}`,
				codecStat(func(raw, enc int64) float64 {
					if enc == 0 {
						return 0
					}
					return float64(raw) / float64(enc)
				}))
		}
		for d := 0; d < e.opts.NumDisks; d++ {
			d := d
			labels := fmt.Sprintf(`{shard=%q,disk="%d"}`, shard, d)
			diskStat := func(pick func(disk.DiskOps) int64) func() float64 {
				return func() float64 {
					s := e.shardAt(i)
					if s == nil {
						return 0
					}
					return float64(pick(s.diskOpCounts(d)))
				}
			}
			reg.RegisterFunc(`disk_read_ops_total`+labels,
				diskStat(func(o disk.DiskOps) int64 { return o.ReadOps }))
			reg.RegisterFunc(`disk_write_ops_total`+labels,
				diskStat(func(o disk.DiskOps) int64 { return o.WriteOps }))
			reg.RegisterFunc(`disk_read_blocks_total`+labels,
				diskStat(func(o disk.DiskOps) int64 { return o.ReadBlocks }))
			reg.RegisterFunc(`disk_write_blocks_total`+labels,
				diskStat(func(o disk.DiskOps) int64 { return o.WriteBlocks }))
		}
	}
}
