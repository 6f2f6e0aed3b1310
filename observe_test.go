package dualindex

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dualindex/internal/obshttp"
)

// observeOpts is smallOpts with every observability feature on: metrics,
// span recording, a nanosecond slow-query threshold (every query logs) and a
// small block cache so the cache gauges have something to report.
func observeOpts(shards int) Options {
	opts := smallOpts(shards)
	opts.CacheBlocks = 8
	opts.Metrics = true
	opts.TraceBuffer = 512
	opts.SlowQuery = 1
	return opts
}

// TestObservabilityEndToEnd drives an instrumented engine through flushes
// and queries and checks every signal arrives: flush and query metrics,
// scrape-time gauges, trace spans and the slow-query log.
func TestObservabilityEndToEnd(t *testing.T) {
	eng, err := Open(observeOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	for _, text := range synthTexts(29, 60, 30, 20) {
		eng.AddDocument(text)
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SearchBoolean(synthWord(0) + " or " + synthWord(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SearchVector(synthWord(0)+" "+synthWord(2), 5); err != nil {
		t.Fatal(err)
	}

	reg := eng.Metrics()
	if reg == nil {
		t.Fatal("Metrics() = nil with Options.Metrics set")
	}
	if got := reg.Counter(`flushes_total{shard="0"}`).Value(); got != 1 {
		t.Errorf("flushes_total = %d, want 1", got)
	}
	if got := reg.Counter(`flush_docs_total{shard="0"}`).Value(); got != 60 {
		t.Errorf("flush_docs_total = %d, want 60", got)
	}
	if got := reg.Counter(`queries_total{kind="boolean"}`).Value(); got != 1 {
		t.Errorf("queries_total{boolean} = %d, want 1", got)
	}
	if got := reg.Counter(`queries_total{kind="vector"}`).Value(); got != 1 {
		t.Errorf("queries_total{vector} = %d, want 1", got)
	}
	if got := reg.Counter("slow_queries_total").Value(); got != 2 {
		t.Errorf("slow_queries_total = %d, want 2", got)
	}
	for _, name := range []string{
		`flush_seconds{shard="0"}`,
		`flush_phase_seconds{phase="plan",shard="0"}`,
		`flush_phase_seconds{phase="bucket_flush",shard="0"}`,
		`flush_phase_seconds{phase="checkpoint",shard="0"}`,
		`flush_phase_seconds{phase="release",shard="0"}`,
		`query_phase_seconds{phase="route"}`,
		`query_phase_seconds{phase="merge"}`,
		`query_phase_seconds{phase="fetch",shard="0"}`,
		`query_phase_seconds{phase="score",shard="0"}`,
		`query_seconds{kind="boolean"}`,
	} {
		if snap := reg.Histogram(name, nil).Snapshot(); snap.Count == 0 {
			t.Errorf("histogram %s recorded nothing", name)
		}
	}

	// Scrape-time gauges: pending docs, bucket load, cache and per-disk I/O.
	gauges := reg.Snapshot()["gauges"].(map[string]float64)
	for _, name := range []string{
		`pending_docs{shard="0"}`,
		`bucket_load_factor{shard="0"}`,
		`cache_hits_total{shard="0"}`,
		`disk_read_ops_total{shard="0",disk="0"}`,
		`disk_write_ops_total{shard="0",disk="1"}`,
	} {
		if _, ok := gauges[name]; !ok {
			t.Errorf("scrape gauge %s not registered", name)
		}
	}
	if v := gauges[`disk_write_ops_total{shard="0",disk="0"}`]; v == 0 {
		t.Error("disk 0 write ops gauge = 0 after a flush")
	}

	// Prometheus exposition: namespaced series with merged labels.
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		`dualindex_flushes_total{shard="0"} 1`,
		`dualindex_queries_total{kind="boolean"} 1`,
		`# TYPE dualindex_flush_phase_seconds histogram`,
		`dualindex_flush_seconds_bucket{shard="0",le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}

	// Trace spans: flush phases under the shard scope, query phases under
	// the engine scope.
	events := eng.Tracer().Events()
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	seen := map[string]bool{}
	for _, ev := range events {
		seen[ev.Scope+"/"+ev.Name] = true
	}
	for _, want := range []string{
		"shard-0/flush.plan", "shard-0/flush.bucket_flush", "shard-0/flush",
		"engine/query.route", "engine/query.merge", "engine/query",
		"shard-0/query.fetch", "shard-0/query.score", "engine/query.slow",
	} {
		if !seen[want] {
			t.Errorf("trace missing span %s", want)
		}
	}

	// Slow-query log: with a 1ns threshold both queries qualify.
	slow := eng.SlowQueries()
	if len(slow) != 2 {
		t.Fatalf("SlowQueries len = %d, want 2", len(slow))
	}
	if slow[0].Kind != "boolean" || slow[1].Kind != "vector" {
		t.Errorf("slow-query kinds = %s, %s", slow[0].Kind, slow[1].Kind)
	}
	if !strings.Contains(slow[0].Query, synthWord(0)) || slow[0].Dur <= 0 {
		t.Errorf("slow-query record %+v malformed", slow[0])
	}
}

// TestFailedQueriesCounted: a query that returns an error instead of an
// answer — refused by the parser, the planner or a shard — counts in
// queries_failed_total under its kind and not in queries_total.
func TestFailedQueriesCounted(t *testing.T) {
	eng, err := Open(observeOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, text := range synthTexts(37, 20, 20, 10) {
		eng.AddDocument(text)
	}
	if _, err := eng.SearchBoolean("((("); err == nil {
		t.Error(`SearchBoolean("(((") succeeded`)
	}
	if _, err := eng.Query("not cat", 5); err == nil {
		t.Error(`Query("not cat") succeeded`)
	}
	if _, err := eng.SearchPhrase("white mouse"); err == nil {
		t.Error("phrase query without stored documents succeeded")
	}
	if _, err := eng.SearchBoolean(synthWord(0)); err != nil {
		t.Fatal(err)
	}
	reg := eng.Metrics()
	for kind, want := range map[string][2]int64{
		"boolean": {1, 1},
		"query":   {1, 0},
		"phrase":  {1, 0},
		"vector":  {0, 0},
	} {
		failed := reg.Counter(`queries_failed_total{kind="` + kind + `"}`).Value()
		served := reg.Counter(`queries_total{kind="` + kind + `"}`).Value()
		if failed != want[0] || served != want[1] {
			t.Errorf("%s: queries_failed_total = %d, queries_total = %d; want %d, %d", kind, failed, served, want[0], want[1])
		}
	}
}

// TestObservabilityDisabled pins the disabled path: a default engine carries
// no observer, the accessors return nil/empty, and everything still works.
func TestObservabilityDisabled(t *testing.T) {
	eng, err := Open(smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.obs != nil {
		t.Error("observer allocated with observability off")
	}
	if eng.Metrics() != nil || eng.Tracer() != nil {
		t.Error("Metrics/Tracer non-nil with observability off")
	}
	for _, text := range synthTexts(31, 20, 20, 10) {
		eng.AddDocument(text)
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SearchBoolean(synthWord(0)); err != nil {
		t.Fatal(err)
	}
	if got := eng.SlowQueries(); len(got) != 0 {
		t.Errorf("SlowQueries = %v, want empty", got)
	}
}

// TestBatchStatsPhases checks FlushBatch reports where the flush spent its
// time, at flush width 1 and at the default: every batch's phase durations
// sum to a positive total, none is negative, plan is positive, and a batch
// that writes long lists spends positive time in the executor.
func TestBatchStatsPhases(t *testing.T) {
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := smallOpts(2)
			opts.Workers = workers
			eng, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for _, text := range synthTexts(37, 40, 30, 20) {
				eng.AddDocument(text)
			}
			st, err := eng.FlushBatch()
			if err != nil {
				t.Fatal(err)
			}
			if st.Evictions == 0 {
				t.Fatal("batch wrote no long lists; the LongApply check is vacuous")
			}
			if st.Phases.Total() <= 0 {
				t.Fatalf("Phases.Total() = %v, want > 0 (phases %+v)", st.Phases.Total(), st.Phases)
			}
			if st.Phases.Plan <= 0 {
				t.Errorf("Phases.Plan = %v, want > 0", st.Phases.Plan)
			}
			if st.Phases.LongApply <= 0 {
				t.Errorf("Phases.LongApply = %v, want > 0", st.Phases.LongApply)
			}
			if st.Phases.BucketFlush < 0 || st.Phases.Checkpoint < 0 || st.Phases.Release < 0 {
				t.Errorf("negative phase duration: %+v", st.Phases)
			}
		})
	}
}

// TestStatsAggregationSharded pins the sharded Stats derivations of this PR:
// MaxBucketLoadFactor is the per-shard maximum (at least the mean, equal to
// it for one shard), Utilization is the long-list-weighted mean of the
// per-shard utilizations, and an empty engine reports clean zeros — never
// NaN — for every ratio.
func TestStatsAggregationSharded(t *testing.T) {
	// Empty 4-shard engine: no long lists, no cache traffic. The weighted
	// means divide by zero unless guarded; the guard must yield 0.
	empty, err := Open(smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	st := empty.Stats()
	for name, v := range map[string]float64{
		"Utilization":         st.Utilization,
		"AvgReadsPerList":     st.AvgReadsPerList,
		"CacheHitRate":        st.CacheHitRate,
		"MaxBucketLoadFactor": st.MaxBucketLoadFactor,
	} {
		if math.IsNaN(v) {
			t.Errorf("empty engine: %s is NaN", name)
		}
	}
	if st.Utilization != 0 || st.AvgReadsPerList != 0 || st.CacheHitRate != 0 {
		t.Errorf("empty engine ratios = %v/%v/%v, want zeros",
			st.Utilization, st.AvgReadsPerList, st.CacheHitRate)
	}

	// Loaded 4-shard engine: check the aggregates against the per-shard
	// stats they derive from.
	eng, err := Open(smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i, text := range synthTexts(41, shardSpan+120, 40, 25) {
		eng.AddDocument(text)
		if (i+1)%40 == 0 {
			if _, err := eng.FlushBatch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	requireShardsHoldDocs(t, eng)
	st = eng.Stats()
	var utilWeighted float64
	longLists := 0
	maxLoad := 0.0
	for _, s := range eng.shards {
		ss := s.stats()
		utilWeighted += ss.Utilization * float64(ss.LongLists)
		longLists += ss.LongLists
		if ss.MaxBucketLoadFactor > maxLoad {
			maxLoad = ss.MaxBucketLoadFactor
		}
	}
	if longLists == 0 {
		t.Fatal("corpus produced no long lists; aggregation untested")
	}
	if want := utilWeighted / float64(longLists); math.Abs(st.Utilization-want) > 1e-12 {
		t.Errorf("Utilization = %v, want long-list-weighted mean %v", st.Utilization, want)
	}
	if st.MaxBucketLoadFactor != maxLoad {
		t.Errorf("MaxBucketLoadFactor = %v, want per-shard max %v", st.MaxBucketLoadFactor, maxLoad)
	}
	if mean := eng.BucketLoadFactor(); st.MaxBucketLoadFactor < mean {
		t.Errorf("MaxBucketLoadFactor %v < mean load factor %v", st.MaxBucketLoadFactor, mean)
	}
	if st.MaxBucketLoadFactor <= 0 {
		t.Error("MaxBucketLoadFactor = 0 on a loaded engine")
	}

	// Single shard: max and mean coincide by construction.
	one, err := Open(smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	for _, text := range synthTexts(43, 40, 30, 20) {
		one.AddDocument(text)
	}
	if _, err := one.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if got, want := one.Stats().MaxBucketLoadFactor, one.BucketLoadFactor(); got != want {
		t.Errorf("single shard: MaxBucketLoadFactor = %v, BucketLoadFactor = %v", got, want)
	}
}

// TestSlowQueryLogBounded pins the slow-query ring's bound: it keeps exactly
// the 128 most recent entries, oldest first.
func TestSlowQueryLogBounded(t *testing.T) {
	opts := smallOpts(1)
	opts.SlowQuery = 1 // every query qualifies
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, text := range synthTexts(83, 30, 20, 10) {
		eng.AddDocument(text)
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}

	// Distinct words, so each survivor names the query it logged.
	queries := make([]string, slowQueryLogCap+12)
	for i := range queries {
		queries[i] = synthWord(i)
		if _, err := eng.SearchBoolean(queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	slow := eng.SlowQueries()
	if len(slow) != slowQueryLogCap {
		t.Fatalf("SlowQueries len = %d, want the cap %d", len(slow), slowQueryLogCap)
	}
	for i, rec := range slow {
		// The survivors are the last 128 queries, oldest first.
		if want := queries[len(queries)-slowQueryLogCap+i]; rec.Query != want {
			t.Errorf("slow[%d].Query = %q, want %q", i, rec.Query, want)
		}
	}
	if last := slow[len(slow)-1].Time; slow[0].Time.After(last) {
		t.Error("slow-query log not in oldest-first order")
	}
}

// TestHealthAfterClose pins the liveness dimension: a closed engine is
// neither healthy nor ready.
func TestHealthAfterClose(t *testing.T) {
	eng, err := Open(smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	h := eng.Health()
	if h.Healthy || h.Ready {
		t.Errorf("Health() after Close = %+v", h)
	}
}

// TestStatsDeadFraction pins the new Stats fields: DocsIndexed follows
// flushes and sweeps, DeadFraction is deleted over indexed, and both
// aggregate across shards.
func TestStatsDeadFraction(t *testing.T) {
	opts := smallOpts(2)
	opts.BlocksPerDisk = 8192 // room for the sweep to rewrite shard 0's lists
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const n = shardSpan + 40
	var ids []DocID
	for _, text := range synthTexts(53, n, 30, 20) {
		ids = append(ids, eng.AddDocument(text))
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	requireShardsHoldDocs(t, eng)
	st := eng.Stats()
	if st.DocsIndexed != n {
		t.Errorf("DocsIndexed = %d, want %d", st.DocsIndexed, n)
	}
	if st.DeadFraction != 0 {
		t.Errorf("DeadFraction = %v with no deletes", st.DeadFraction)
	}
	// Five deletions on each shard.
	for _, id := range append(ids[:5:5], ids[n-5:]...) {
		eng.Delete(id)
	}
	st = eng.Stats()
	if want := 10.0 / n; st.DeadFraction != want {
		t.Errorf("DeadFraction = %v, want %v", st.DeadFraction, want)
	}
	// Per-shard stats sum to the engine-wide count, each with its own
	// fraction.
	var sum int64
	for i, ss := range eng.ShardStats() {
		sum += ss.DocsIndexed
		if ss.Deleted != 5 || ss.DeadFraction == 0 {
			t.Errorf("shard %d: %d deleted, DeadFraction %v; want 5 and above 0", i, ss.Deleted, ss.DeadFraction)
		}
	}
	if sum != st.DocsIndexed {
		t.Errorf("per-shard DocsIndexed sums to %d, engine says %d", sum, st.DocsIndexed)
	}
	if err := eng.Sweep(); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.DocsIndexed != n-10 || st.DeadFraction != 0 {
		t.Errorf("after sweep: DocsIndexed = %d DeadFraction = %v, want %d and 0",
			st.DocsIndexed, st.DeadFraction, n-10)
	}
}

// TestDeadFractionArithmetic pins the ratio's edge cases: no documents is
// 0 (not NaN), and more recorded deletes than known indexed documents — a
// reopened index without a document store loses the count — saturates at 1,
// erring toward sweeping.
func TestDeadFractionArithmetic(t *testing.T) {
	for _, tc := range []struct {
		indexed, deleted int
		want             float64
	}{
		{0, 0, 0},
		{100, 0, 0},
		{100, 25, 0.25},
		{0, 50, 1},  // unknown denominator: saturate
		{10, 50, 1}, // stale denominator: saturate
	} {
		if got := deadFraction(tc.indexed, tc.deleted); got != tc.want {
			t.Errorf("deadFraction(%d, %d) = %v, want %v", tc.indexed, tc.deleted, got, tc.want)
		}
	}
}

// TestSlowQueryLogConcurrent hammers the slow-query ring from many
// goroutines: the ring must stay exactly at its capacity and the cumulative
// counter must see every query. Run under -race, this is the ring's
// synchronization proof.
func TestSlowQueryLogConcurrent(t *testing.T) {
	opts := smallOpts(1)
	opts.Metrics = true
	opts.SlowQuery = 1 // every query qualifies
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, text := range synthTexts(59, 30, 20, 10) {
		eng.AddDocument(text)
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}

	const goroutines, each = 10, 15 // more queries than the ring holds
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := eng.SearchBoolean(synthWord((g*each + i) % 20)); err != nil {
					t.Error(err)
					return
				}
				_ = eng.SlowQueries() // readers interleave with writers
			}
		}(g)
	}
	wg.Wait()
	if got := eng.SlowQueries(); len(got) != slowQueryLogCap {
		t.Errorf("ring length %d after %d concurrent queries, want the cap %d",
			len(got), goroutines*each, slowQueryLogCap)
	}
	if got := eng.Metrics().Counter("slow_queries_total").Value(); got != goroutines*each {
		t.Errorf("slow_queries_total = %d, want %d: the cumulative counter is ring-independent", got, goroutines*each)
	}
}

// TestQuerySlowLogCanonical pins what the unified Query path logs: the
// canonical rendering of the parsed expression, so different spellings of
// one query group under one string.
func TestQuerySlowLogCanonical(t *testing.T) {
	opts := smallOpts(1)
	opts.SlowQuery = 1
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, text := range synthTexts(61, 30, 20, 10) {
		eng.AddDocument(text)
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	a, b := synthWord(0), synthWord(1)
	for _, spelling := range []string{
		a + " AND   " + b,
		"(" + a + " and " + b + ")",
	} {
		if _, err := eng.Query(spelling, 5); err != nil {
			t.Fatal(err)
		}
	}
	slow := eng.SlowQueries()
	if len(slow) != 2 {
		t.Fatalf("SlowQueries len = %d, want 2", len(slow))
	}
	want := "(" + a + " and " + b + ")"
	for i, rec := range slow {
		if rec.Query != want {
			t.Errorf("slow[%d].Query = %q, want the canonical %q", i, rec.Query, want)
		}
		if rec.Kind != "query" {
			t.Errorf("slow[%d].Kind = %q, want %q", i, rec.Kind, "query")
		}
	}
}

// TestHealthOpenEngine pins the default health states: an open engine with
// no reshard running is healthy and ready, with no reasons.
func TestHealthOpenEngine(t *testing.T) {
	eng, err := Open(smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := eng.Health()
	if !h.Healthy || !h.Ready || len(h.Reasons) != 0 {
		t.Errorf("Health() = %+v, want healthy and ready", h)
	}
}

// TestObsHTTPEngineWiring serves a real engine the way the commands wire
// it: per-shard statistics on /stats?shard=i carry the dead-posting
// fraction, and /readyz answers 200 while the engine is open and 503 once
// it is closed.
func TestObsHTTPEngineWiring(t *testing.T) {
	eng, err := Open(smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	var ids []DocID
	for _, text := range synthTexts(47, 40, 30, 20) {
		ids = append(ids, eng.AddDocument(text))
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[:10] {
		eng.Delete(id)
	}
	srv := httptest.NewServer(obshttp.New(obshttp.Config{
		Stats: func() any { return eng.Stats() },
		ShardStats: func() []any {
			sts := eng.ShardStats()
			out := make([]any, len(sts))
			for i, s := range sts {
				out[i] = s
			}
			return out
		},
		Health: func() obshttp.HealthState {
			h := eng.Health()
			return obshttp.HealthState{Healthy: h.Healthy, Ready: h.Ready, Reasons: h.Reasons}
		},
	}))
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/stats?shard=1"); code != 200 || !strings.Contains(body, `"DeadFraction"`) {
		t.Errorf("/stats?shard=1: code %d, body misses DeadFraction:\n%s", code, body)
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, `"ready": true`) {
		t.Errorf("/readyz on an open engine: code %d body %s", code, body)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "engine closed") {
		t.Errorf("/readyz after Close: code %d body %s", code, body)
	}
}
