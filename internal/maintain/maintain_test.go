package maintain

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"dualindex/internal/metrics"
	"dualindex/internal/trace"
)

// fakeShard is one shard of the fake target: its current signals, whether
// actions bounce off it, and what has been done to it.
type fakeShard struct {
	sig        ShardSignals
	busy       bool
	failWith   error
	sweeps     int
	rebalances int
	// lastBuckets is the geometry of the last rebalance request.
	lastBuckets, lastBucketSize int
}

// fakeTarget implements Target over in-memory shards whose actions succeed
// instantly: a sweep zeroes the dead signals, a rebalance adopts the
// requested geometry and recomputes the load factor — the convergence the
// controller expects of the real engine.
type fakeTarget struct {
	mu     sync.Mutex
	shards []*fakeShard
	es     EngineSignals
}

func (f *fakeTarget) NumShards() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.shards)
}

func (f *fakeTarget) EngineSignals() EngineSignals {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.es
}

func (f *fakeTarget) ShardSignals(i int) (ShardSignals, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i < 0 || i >= len(f.shards) {
		return ShardSignals{}, false
	}
	return f.shards[i].sig, true
}

func (f *fakeTarget) SweepShard(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.shards[i]
	if s.busy {
		return ErrBusy
	}
	if s.failWith != nil {
		return s.failWith
	}
	s.sweeps++
	s.sig.DeletedDocs = 0
	s.sig.DeadFraction = 0
	return nil
}

func (f *fakeTarget) RebalanceShard(i, buckets, bucketSize int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.shards[i]
	if s.busy {
		return ErrBusy
	}
	if s.failWith != nil {
		return s.failWith
	}
	s.rebalances++
	s.lastBuckets, s.lastBucketSize = buckets, bucketSize
	// The same short-list load spread over the new capacity.
	load := s.sig.LoadFactor * float64(s.sig.Buckets) * float64(s.sig.BucketSize)
	s.sig.Buckets, s.sig.BucketSize = buckets, bucketSize
	s.sig.LoadFactor = load / (float64(buckets) * float64(bucketSize))
	return nil
}

func newTestController(t *testing.T, f *fakeTarget, th Thresholds) *Controller {
	t.Helper()
	c, err := New(f, Config{Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultsAndValidation(t *testing.T) {
	th := Thresholds{}.Normalize()
	if th.Interval != 5*time.Second || th.MaxLoadFactor != 0.85 ||
		th.TargetLoadFactor != 0.60 || th.MaxDeadFraction != 0.25 ||
		th.MinDeadDocs != 64 || th.PressureFactor != 0.75 ||
		th.BacklogAfter != 40*time.Second || th.DecisionLog != 128 {
		t.Errorf("unexpected defaults: %+v", th)
	}
	if err := th.Validate(); err != nil {
		t.Errorf("defaults must validate: %v", err)
	}
	bad := []Thresholds{
		{MaxLoadFactor: 1.5},
		{MaxLoadFactor: 0.5, TargetLoadFactor: 0.6}, // target above max
		{MaxDeadFraction: -1},
		{PressureFactor: 2},
	}
	for _, b := range bad {
		if _, err := New(&fakeTarget{}, Config{Thresholds: b.Normalize()}); err == nil {
			t.Errorf("thresholds %+v must be rejected", b)
		}
	}
}

func TestSweepTriggersOnDeadFractionAndConverges(t *testing.T) {
	f := &fakeTarget{shards: []*fakeShard{
		{sig: ShardSignals{Shard: 0, LoadFactor: 0.1, Buckets: 16, BucketSize: 32,
			DeadFraction: 0.5, DeletedDocs: 100, DocsIndexed: 200}},
		{sig: ShardSignals{Shard: 1, LoadFactor: 0.1, Buckets: 16, BucketSize: 32,
			DeadFraction: 0.1, DeletedDocs: 20, DocsIndexed: 200}}, // below threshold
	}}
	c := newTestController(t, f, Thresholds{})
	c.Tick()
	if f.shards[0].sweeps != 1 {
		t.Errorf("shard 0 sweeps = %d, want 1", f.shards[0].sweeps)
	}
	if f.shards[1].sweeps != 0 {
		t.Errorf("shard 1 below threshold must not be swept, got %d sweeps", f.shards[1].sweeps)
	}
	c.Tick() // signals recovered: no further action
	if f.shards[0].sweeps != 1 {
		t.Errorf("converged shard swept again: %d sweeps", f.shards[0].sweeps)
	}
	st := c.Status()
	if !st.Enabled || st.Ticks != 2 || st.Runs[ActionSweep] != 1 || st.Backlogged {
		t.Errorf("status = %+v", st)
	}
	ds := c.Status().Decisions
	if len(ds) != 1 || ds[0].Action != ActionSweep || ds[0].Outcome != "ok" || ds[0].Shard != 0 {
		t.Errorf("decisions = %+v", ds)
	}
	if !strings.Contains(ds[0].Reason, "dead_fraction") {
		t.Errorf("decision reason %q must name the signal", ds[0].Reason)
	}
}

func TestMinDeadDocsFloorsTheSweep(t *testing.T) {
	// Dead fraction over threshold but too few deleted documents to be
	// worth a sweep.
	f := &fakeTarget{shards: []*fakeShard{
		{sig: ShardSignals{DeadFraction: 0.9, DeletedDocs: 9, DocsIndexed: 10}},
	}}
	c := newTestController(t, f, Thresholds{MinDeadDocs: 10})
	c.Tick()
	if f.shards[0].sweeps != 0 {
		t.Errorf("sweep below MinDeadDocs: %d sweeps", f.shards[0].sweeps)
	}
}

func TestRebalanceGrowsBucketsToTarget(t *testing.T) {
	f := &fakeTarget{shards: []*fakeShard{
		{sig: ShardSignals{LoadFactor: 0.95, Buckets: 16, BucketSize: 32}},
	}}
	c := newTestController(t, f, Thresholds{})
	c.Tick()
	s := f.shards[0]
	if s.rebalances != 1 {
		t.Fatalf("rebalances = %d, want 1", s.rebalances)
	}
	want := int(math.Ceil(0.95 * 16 / 0.60)) // 26
	if s.lastBuckets != want || s.lastBucketSize != 32 {
		t.Errorf("rebalanced to %d×%d, want %d×32", s.lastBuckets, s.lastBucketSize, want)
	}
	if s.sig.LoadFactor > 0.85 {
		t.Errorf("load factor %v did not recover below threshold", s.sig.LoadFactor)
	}
	c.Tick()
	if s.rebalances != 1 {
		t.Errorf("recovered shard rebalanced again: %d", s.rebalances)
	}
}

func TestSweepTakesPriorityOverRebalance(t *testing.T) {
	// Both signals over threshold: the sweep runs (it may fix the load
	// factor on its own); the load factor is re-checked next tick.
	f := &fakeTarget{shards: []*fakeShard{
		{sig: ShardSignals{LoadFactor: 0.95, Buckets: 16, BucketSize: 32,
			DeadFraction: 0.5, DeletedDocs: 100, DocsIndexed: 200}},
	}}
	c := newTestController(t, f, Thresholds{})
	c.Tick()
	if f.shards[0].sweeps != 1 || f.shards[0].rebalances != 0 {
		t.Errorf("tick 1: sweeps=%d rebalances=%d, want the sweep first",
			f.shards[0].sweeps, f.shards[0].rebalances)
	}
	c.Tick() // dead signals cleared, load factor still high
	if f.shards[0].rebalances != 1 {
		t.Errorf("tick 2: rebalances=%d, want the rebalance now", f.shards[0].rebalances)
	}
}

func TestBusyDefersAndBacklogs(t *testing.T) {
	f := &fakeTarget{shards: []*fakeShard{
		{busy: true, sig: ShardSignals{LoadFactor: 0.95, Buckets: 16, BucketSize: 32}},
	}}
	c := newTestController(t, f, Thresholds{BacklogAfter: time.Nanosecond})
	c.Tick()
	if f.shards[0].rebalances != 0 {
		t.Fatal("busy shard must not be rebalanced")
	}
	st := c.Status()
	if st.Deferred[ActionRebalance] != 1 {
		t.Errorf("deferred = %v", st.Deferred)
	}
	if ds := c.Status().Decisions; len(ds) != 1 || ds[0].Outcome != "deferred" {
		t.Errorf("decisions = %+v", ds)
	}
	time.Sleep(time.Millisecond) // past BacklogAfter
	if !c.Backlogged() {
		t.Error("deferred action past BacklogAfter must report backlogged")
	}
	st = c.Status()
	if !st.Backlogged || len(st.Backlog) != 1 || st.Backlog[0].Action != ActionRebalance {
		t.Errorf("status backlog = %+v", st)
	}
	// Shard frees up: the next tick completes the action and drains the
	// backlog.
	f.mu.Lock()
	f.shards[0].busy = false
	f.mu.Unlock()
	c.Tick()
	if f.shards[0].rebalances != 1 {
		t.Errorf("freed shard not rebalanced: %d", f.shards[0].rebalances)
	}
	if c.Backlogged() {
		t.Error("completed action must clear the backlog")
	}
}

func TestRecoveredShardLeavesBacklog(t *testing.T) {
	// A shard that recovers on its own (e.g. a flush-path eviction drained
	// the buckets) stops being wanted even though the controller never ran.
	f := &fakeTarget{shards: []*fakeShard{
		{busy: true, sig: ShardSignals{LoadFactor: 0.95, Buckets: 16, BucketSize: 32}},
	}}
	c := newTestController(t, f, Thresholds{BacklogAfter: time.Nanosecond})
	c.Tick()
	time.Sleep(time.Millisecond)
	if !c.Backlogged() {
		t.Fatal("expected a backlog")
	}
	f.mu.Lock()
	f.shards[0].sig.LoadFactor = 0.2
	f.mu.Unlock()
	c.Tick()
	if c.Backlogged() {
		t.Error("recovered shard must leave the backlog")
	}
}

func TestErrorOutcomeCountsAndRetries(t *testing.T) {
	boom := errors.New("boom")
	f := &fakeTarget{shards: []*fakeShard{
		{failWith: boom, sig: ShardSignals{DeadFraction: 0.5, DeletedDocs: 100, DocsIndexed: 200}},
	}}
	c := newTestController(t, f, Thresholds{})
	c.Tick()
	c.Tick()
	st := c.Status()
	if st.Errors != 2 {
		t.Errorf("errors = %d, want 2 (one per tick: failing actions retry)", st.Errors)
	}
	ds := c.Status().Decisions
	if len(ds) != 2 || !strings.Contains(ds[0].Outcome, "boom") {
		t.Errorf("decisions = %+v", ds)
	}
}

func TestPressureLowersRebalanceThreshold(t *testing.T) {
	// Load factor 0.70: under the 0.85 threshold, but over the pressured
	// 0.85×0.75 ≈ 0.64.
	f := &fakeTarget{shards: []*fakeShard{
		{sig: ShardSignals{LoadFactor: 0.70, Buckets: 16, BucketSize: 32}},
	}}
	c := newTestController(t, f, Thresholds{SlowQueryRateMax: 1})
	c.Tick() // baseline: no prior tick, rate 0, no pressure
	if f.shards[0].rebalances != 0 {
		t.Fatal("no pressure yet: must not rebalance below MaxLoadFactor")
	}
	// A burst of slow queries between ticks: the measured rate dwarfs
	// 1/s over the microseconds between the two Tick calls.
	f.mu.Lock()
	f.es.SlowQueries += 1000
	f.mu.Unlock()
	c.Tick()
	if f.shards[0].rebalances != 1 {
		t.Fatalf("pressured tick must rebalance: %d", f.shards[0].rebalances)
	}
	st := c.Status()
	if !st.Pressure || st.SlowQueryRate <= 1 {
		t.Errorf("status pressure=%v rate=%v", st.Pressure, st.SlowQueryRate)
	}
	ds := c.Status().Decisions
	if !strings.Contains(ds[len(ds)-1].Reason, "pressure") {
		t.Errorf("pressured decision reason %q must say so", ds[len(ds)-1].Reason)
	}
}

func TestCacheAndFlushPressureSignals(t *testing.T) {
	f := &fakeTarget{
		shards: []*fakeShard{{sig: ShardSignals{LoadFactor: 0.70, Buckets: 16, BucketSize: 32}}},
		es:     EngineSignals{CacheHitRate: 0.10},
	}
	c := newTestController(t, f, Thresholds{MinCacheHitRate: 0.5})
	c.Tick()
	if f.shards[0].rebalances != 1 {
		t.Errorf("low cache hit rate must pressure the rebalance: %d", f.shards[0].rebalances)
	}

	f2 := &fakeTarget{
		shards: []*fakeShard{{sig: ShardSignals{LoadFactor: 0.70, Buckets: 16, BucketSize: 32}}},
		es:     EngineSignals{FlushP95: 2.0},
	}
	c2 := newTestController(t, f2, Thresholds{FlushP95Budget: time.Second})
	c2.Tick()
	if f2.shards[0].rebalances != 1 {
		t.Errorf("blown flush p95 budget must pressure the rebalance: %d", f2.shards[0].rebalances)
	}
}

func TestDecisionLogBounded(t *testing.T) {
	f := &fakeTarget{shards: []*fakeShard{
		{failWith: errors.New("x"), sig: ShardSignals{DeadFraction: 0.5, DeletedDocs: 100, DocsIndexed: 200}},
	}}
	c := newTestController(t, f, Thresholds{DecisionLog: 4})
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	ds := c.Status().Decisions
	if len(ds) != 4 {
		t.Fatalf("decision log length %d, want cap 4", len(ds))
	}
	for i := 1; i < len(ds); i++ {
		if ds[i].Time.Before(ds[i-1].Time) {
			t.Errorf("decisions out of order at %d", i)
		}
	}
}

func TestControllerMetrics(t *testing.T) {
	reg := metrics.NewRegistry("dualindex")
	rec := trace.New(64)
	f := &fakeTarget{shards: []*fakeShard{
		{sig: ShardSignals{DeadFraction: 0.5, DeletedDocs: 100, DocsIndexed: 200}},
		{busy: true, sig: ShardSignals{LoadFactor: 0.95, Buckets: 16, BucketSize: 32}},
	}}
	c, err := New(f, Config{Thresholds: Thresholds{}, Registry: reg, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	c.Tick()
	if got := reg.Counter("maintenance_ticks_total").Value(); got != 1 {
		t.Errorf("ticks counter = %d", got)
	}
	if got := reg.Counter(`maintenance_runs_total{action="sweep"}`).Value(); got != 1 {
		t.Errorf("sweep runs counter = %d", got)
	}
	if got := reg.Counter(`maintenance_deferred_total{action="rebalance"}`).Value(); got != 1 {
		t.Errorf("rebalance deferred counter = %d", got)
	}
	var spans int
	for _, ev := range rec.Events() {
		if ev.Scope == "maintain" {
			spans++
		}
	}
	if spans != 2 {
		t.Errorf("maintain trace spans = %d, want 2 (one per attempted action)", spans)
	}
}

func TestStartStopLifecycle(t *testing.T) {
	f := &fakeTarget{shards: []*fakeShard{
		{sig: ShardSignals{DeadFraction: 0.5, DeletedDocs: 100, DocsIndexed: 200}},
	}}
	c := newTestController(t, f, Thresholds{Interval: time.Millisecond})
	c.Start()
	c.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		f.mu.Lock()
		done := f.shards[0].sweeps >= 1
		f.mu.Unlock()
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent
	if f.shards[0].sweeps < 1 {
		t.Error("background loop never swept the shard")
	}
	after := c.Status().Ticks
	time.Sleep(5 * time.Millisecond)
	if got := c.Status().Ticks; got != after {
		t.Errorf("ticks advanced after Stop: %d -> %d", after, got)
	}
}

func TestStopWithoutStart(t *testing.T) {
	c := newTestController(t, &fakeTarget{}, Thresholds{})
	done := make(chan struct{})
	go func() { c.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop on a never-started controller hung")
	}
}

func TestNilControllerIsInert(t *testing.T) {
	var c *Controller
	if c.Backlogged() {
		t.Error("nil controller backlogged")
	}
	if ds := c.Status().Decisions; ds != nil {
		t.Errorf("nil controller decisions = %v", ds)
	}
	if st := c.Status(); st.Enabled {
		t.Errorf("nil controller status = %+v", st)
	}
}

// TestConcurrentTickAndStatus drives ticks, status reads and backlog reads
// from many goroutines at once — run under -race, this is the controller's
// synchronization proof.
func TestConcurrentTickAndStatus(t *testing.T) {
	f := &fakeTarget{shards: []*fakeShard{
		{sig: ShardSignals{DeadFraction: 0.5, DeletedDocs: 100, DocsIndexed: 200}},
		{busy: true, sig: ShardSignals{LoadFactor: 0.95, Buckets: 16, BucketSize: 32}},
	}}
	c := newTestController(t, f, Thresholds{DecisionLog: 8})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Tick()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = c.Status()
				_ = c.Backlogged()
				_ = c.Status().Decisions
			}
		}()
	}
	wg.Wait()
	if got := c.Status().Ticks; got != 200 {
		t.Errorf("ticks = %d, want 200", got)
	}
}

func TestGrowBucketsAlwaysGrows(t *testing.T) {
	// Even a load factor just over target must grow by at least one bucket,
	// or the controller would retry the same geometry forever.
	for _, lf := range []float64{0.61, 0.85, 0.99, 3.0} {
		sig := ShardSignals{LoadFactor: lf, Buckets: 100, BucketSize: 32}
		if got := growBuckets(sig, 0.60); got <= sig.Buckets {
			t.Errorf("growBuckets(load=%v) = %d, not > %d", lf, got, sig.Buckets)
		}
	}
}

func TestStatusJSONRoundTrips(t *testing.T) {
	// /maintenance serves Status as JSON; make sure every field encodes.
	f := &fakeTarget{shards: []*fakeShard{
		{sig: ShardSignals{DeadFraction: 0.5, DeletedDocs: 100, DocsIndexed: 200}},
	}}
	c := newTestController(t, f, Thresholds{})
	c.Tick()
	st := c.Status()
	if st.Runs[ActionSweep] != 1 {
		t.Fatalf("status = %+v", st)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"enabled":true`, `"sweep":1`, `"decisions":[`, `"dead_fraction"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("status JSON misses %s:\n%s", want, b)
		}
	}
}
