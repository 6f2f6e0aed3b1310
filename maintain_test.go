package dualindex

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dualindex/internal/obshttp"
)

// maintainOpts is an instrumented engine with an aggressive maintenance
// controller: a millisecond tick and thresholds low enough that the small
// test geometry trips them.
func maintainOpts(shards int) Options {
	opts := smallOpts(shards)
	opts.Metrics = true
	opts.TraceBuffer = 512
	opts.Maintenance = &MaintenanceOptions{
		Interval:         2 * time.Millisecond,
		MaxLoadFactor:    0.20,
		TargetLoadFactor: 0.10,
		MaxDeadFraction:  0.20,
		MinDeadDocs:      10,
	}
	return opts
}

// waitFor polls cond until it answers true or the deadline passes. The
// controller runs on its own clock, so convergence tests wait rather than
// tick by hand.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMaintenanceControllerConverges is the PR's acceptance test: under a
// delete-heavy churn workload with Options.Maintenance on, the controller
// notices the degraded signals on its own, runs rebalance and sweep shard by
// shard, and the gauges recover below their thresholds.
func TestMaintenanceControllerConverges(t *testing.T) {
	eng, err := Open(maintainOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	th := *eng.opts.Maintenance

	// Load phase: flush enough postings that some shard's bucket load
	// factor crosses the rebalance threshold.
	load := func(eng *Engine) (ids []DocID) {
		for i, text := range synthTexts(47, 160, 40, 25) {
			ids = append(ids, eng.AddDocument(text))
			if (i+1)%40 == 0 {
				if _, err := eng.FlushBatch(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return ids
	}
	ids := load(eng)
	// The controller is already live during the load phase; on a slow run
	// (race detector, loaded CI) it can notice and rebalance between
	// flushes, so "the load factor crossed the threshold" may only be
	// visible as "a rebalance already ran" by the time we look.
	if lf := eng.Stats().MaxBucketLoadFactor; lf <= th.MaxLoadFactor &&
		eng.Maintenance().Runs["rebalance"] == 0 {
		t.Fatalf("test corpus too small: load factor %v never crossed the %v threshold",
			lf, th.MaxLoadFactor)
	}

	waitFor(t, "the controller to rebalance the overloaded shards", func() bool {
		return eng.Maintenance().Runs["rebalance"] >= 1 &&
			eng.Stats().MaxBucketLoadFactor <= th.MaxLoadFactor
	})

	// Churn phase: delete enough documents that the dead fraction crosses
	// the sweep threshold on every shard.
	for _, id := range ids[:len(ids)/2] {
		eng.Delete(id)
	}
	if eng.Stats().Deleted == 0 {
		t.Fatal("deletes not registered")
	}
	waitFor(t, "the controller to sweep the dead postings", func() bool {
		return eng.Maintenance().Runs["sweep"] >= 1 && eng.Stats().Deleted == 0
	})
	df := eng.Stats().DeadFraction
	if df > th.MaxDeadFraction {
		t.Errorf("dead fraction %v did not recover below %v", df, th.MaxDeadFraction)
	}
	// The same load and deletes with the controller off are left holding
	// the dead postings, above the threshold: the recovery is the
	// controller's doing, not the workload's.
	offOpts := maintainOpts(2)
	offOpts.Maintenance = nil
	off, err := Open(offOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	offIDs := load(off)
	for _, id := range offIDs[:len(offIDs)/2] {
		off.Delete(id)
	}
	if offDF := off.Stats().DeadFraction; offDF <= th.MaxDeadFraction || df >= offDF {
		t.Errorf("unmaintained dead fraction %v, maintained %v: want unmaintained above the %v threshold and above maintained",
			offDF, df, th.MaxDeadFraction)
	}

	// The controller's own instrumentation: decisions in the log with the
	// signals they were made from, ticks in the registry, spans in the ring.
	st := eng.Maintenance()
	if !st.Enabled || len(st.Decisions) == 0 {
		t.Fatalf("maintenance status = %+v", st)
	}
	sawSweep, sawRebalance := false, false
	for _, d := range st.Decisions {
		switch d.Action {
		case "sweep":
			sawSweep = true
			if d.Signals.DeadFraction <= th.MaxDeadFraction {
				t.Errorf("sweep decision carries signals below threshold: %+v", d)
			}
		case "rebalance":
			sawRebalance = true
			if d.Outcome == "ok" && d.NewBuckets <= d.Signals.Buckets {
				t.Errorf("rebalance decision did not grow the buckets: %+v", d)
			}
		}
	}
	if !sawSweep || !sawRebalance {
		t.Errorf("decision log misses an action kind: sweep=%v rebalance=%v", sawSweep, sawRebalance)
	}
	if got := eng.Metrics().Counter("maintenance_ticks_total").Value(); got == 0 {
		t.Error("maintenance_ticks_total = 0 on a running controller")
	}
	spans := 0
	for _, ev := range eng.Tracer().Events() {
		if ev.Scope == "maintain" {
			spans++
		}
	}
	if spans == 0 {
		t.Error("no maintain spans in the trace ring")
	}

	// The query path keeps answering while the controller works.
	if _, err := eng.SearchBoolean(synthWord(0)); err != nil {
		t.Fatal(err)
	}

	// The HTTP surface, wired the way the commands wire it: decisions on
	// /maintenance, per-shard statistics on /stats?shard=i, readiness 200.
	srv := httptest.NewServer(obshttp.New(obshttp.Config{
		Registry: eng.Metrics(),
		Stats:    func() any { return eng.Stats() },
		ShardStats: func() []any {
			sts := eng.ShardStats()
			out := make([]any, len(sts))
			for i, s := range sts {
				out[i] = s
			}
			return out
		},
		Maintenance: func() any { return eng.Maintenance() },
		Health: func() obshttp.HealthState {
			h := eng.Health()
			return obshttp.HealthState{Healthy: h.Healthy, Ready: h.Ready, Reasons: h.Reasons}
		},
	}))
	defer srv.Close()
	for path, want := range map[string]string{
		"/maintenance":   `"action": "sweep"`,
		"/stats?shard=1": `"DeadFraction"`,
		"/readyz":        `"ready": true`,
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 1<<20)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body[:n]), want) {
			t.Errorf("%s: code %d, body misses %s:\n%s", path, resp.StatusCode, want, body[:n])
		}
	}
}

// TestMaintenanceDisabledByDefault pins the default: no Options.Maintenance,
// no controller — Maintenance() reports disabled and the engine is healthy
// and ready.
func TestMaintenanceDisabledByDefault(t *testing.T) {
	eng, err := Open(smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.maint != nil {
		t.Error("controller allocated with Maintenance unset")
	}
	if st := eng.Maintenance(); st.Enabled {
		t.Errorf("Maintenance() = %+v, want disabled", st)
	}
	h := eng.Health()
	if !h.Healthy || !h.Ready || len(h.Reasons) != 0 {
		t.Errorf("Health() = %+v, want healthy and ready", h)
	}
}

// TestMaintenanceRejectsBadThresholds pins Open's validation: thresholds
// that could never converge fail the open, not the first tick.
func TestMaintenanceRejectsBadThresholds(t *testing.T) {
	opts := smallOpts(1)
	opts.Maintenance = &MaintenanceOptions{MaxLoadFactor: 0.3, TargetLoadFactor: 0.9}
	if _, err := Open(opts); err == nil {
		t.Fatal("Open accepted TargetLoadFactor above MaxLoadFactor")
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
	eng, err := Open(smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var ids []DocID
	for _, text := range synthTexts(53, 40, 30, 20) {
		ids = append(ids, eng.AddDocument(text))
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.DocsIndexed != 40 {
		t.Errorf("DocsIndexed = %d, want 40", st.DocsIndexed)
	}
	if st.DeadFraction != 0 {
		t.Errorf("DeadFraction = %v with no deletes", st.DeadFraction)
	}
	for _, id := range ids[:10] {
		eng.Delete(id)
	}
	st = eng.Stats()
	if want := 10.0 / 40.0; st.DeadFraction != want {
		t.Errorf("DeadFraction = %v, want %v", st.DeadFraction, want)
	}
	// Per-shard stats sum to the engine-wide count, each with its own
	// fraction.
	var sum int64
	for i, ss := range eng.ShardStats() {
		sum += ss.DocsIndexed
		if ss.Deleted > 0 && ss.DeadFraction == 0 {
			t.Errorf("shard %d: %d deleted but DeadFraction 0", i, ss.Deleted)
		}
	}
	if sum != st.DocsIndexed {
		t.Errorf("per-shard DocsIndexed sums to %d, engine says %d", sum, st.DocsIndexed)
	}
	if err := eng.Sweep(); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.DocsIndexed != 30 || st.DeadFraction != 0 {
		t.Errorf("after sweep: DocsIndexed = %d DeadFraction = %v, want 30 and 0",
			st.DocsIndexed, st.DeadFraction)
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
	opts.SlowQuery = 1 // every query qualifies
	opts.SlowQueryLog = 8
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

	const goroutines, each = 10, 10
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
	if got := eng.SlowQueries(); len(got) != 8 {
		t.Errorf("ring length %d after %d concurrent queries, want the cap 8",
			len(got), goroutines*each)
	}
	if got := eng.obs.slowCount(); got != goroutines*each {
		t.Errorf("slowCount = %d, want %d: the cumulative counter is ring-independent", got, goroutines*each)
	}
}

// TestSlowQueryLogZeroCapacity pins the guard recordSlow needs when built
// without the option defaulting: a zero-capacity ring keeps the counters
// and drops the record instead of indexing into an empty slice.
func TestSlowQueryLogZeroCapacity(t *testing.T) {
	o := &observer{slowThreshold: 1}
	for i := 0; i < 3; i++ {
		o.recordSlow(SlowQueryRecord{Kind: "boolean", Query: "q"})
	}
	if got := o.slowQueries(); len(got) != 0 {
		t.Errorf("zero-capacity ring holds %d records", len(got))
	}
	if got := o.slowCount(); got != 3 {
		t.Errorf("slowCount = %d, want 3", got)
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

// TestNilObserverMaintenanceSignals pins the no-op paths the controller
// glue leans on: nil observers and shard handles answer zeros, never panic.
func TestNilObserverMaintenanceSignals(t *testing.T) {
	var o *observer
	if got := o.slowCount(); got != 0 {
		t.Errorf("nil observer slowCount = %d", got)
	}
	var so *shardObs
	if got := so.flushP95(); got != 0 {
		t.Errorf("nil shardObs flushP95 = %v", got)
	}
	// An uninstrumented engine still answers the controller's signal reads.
	eng, err := Open(smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tgt := engineTarget{eng}
	if n := tgt.NumShards(); n != 2 {
		t.Errorf("NumShards = %d", n)
	}
	if es := tgt.EngineSignals(); es.SlowQueries != 0 || es.FlushP95 != 0 {
		t.Errorf("EngineSignals = %+v on an idle uninstrumented engine", es)
	}
	if sig, ok := tgt.ShardSignals(0); !ok || sig.LoadFactor != 0 {
		t.Errorf("ShardSignals(0) = %+v, %v", sig, ok)
	}
	if _, ok := tgt.ShardSignals(9); ok {
		t.Error("ShardSignals out of range answered ok")
	}
}
