// Package maintain is the engine's metrics-driven background maintenance
// controller: a goroutine that watches the engine's own observability
// signals — per-shard bucket load factors, dead-posting fractions, flush
// p95s, the cache hit ratio and the slow-query rate — against configurable
// thresholds, and schedules the paper's §7 maintenance actions
// (RebalanceBuckets, Sweep) shard by shard, in the gaps between flushes,
// instead of leaving them to a serial operator command.
//
// The controller is deliberately polite about the hot paths: every action
// goes through the Target interface, whose implementations are expected to
// use try-locks and answer ErrBusy when the shard is mid-flush or the
// engine mid-reshard. A busy shard is deferred and retried next tick; a
// shard that stays deferred past Thresholds.BacklogAfter marks the
// controller backlogged, which the engine's readiness state surfaces.
//
// The controller instruments itself the way it instruments the engine: a
// bounded decision log records every attempted action (signal values in,
// action and outcome out), maintenance_* counters/gauges land in the
// metrics registry, and each run becomes one trace span. All of that is
// nil-safe — a controller with no registry or tracer still decides and
// acts, it just keeps only its own decision log.
package maintain

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"dualindex/internal/metrics"
	"dualindex/internal/trace"
)

// ErrBusy is a Target's answer when an action cannot run right now — the
// shard is mid-flush or the engine mid-reshard. The controller defers the
// action and retries on the next tick, rather than queueing behind the
// conflicting work.
var ErrBusy = errors.New("maintain: shard busy")

// The controller's actions, as they appear in decisions, counters and
// trace spans.
const (
	ActionSweep     = "sweep"
	ActionRebalance = "rebalance"
)

// Thresholds configure when the controller acts. The zero value of every
// field means "default"; Normalize applies them.
type Thresholds struct {
	// Interval is the controller's polling period. Default 5s.
	Interval time.Duration `json:"interval_ns"`
	// MaxLoadFactor triggers a bucket rebalance when a shard's bucket load
	// factor exceeds it. Default 0.85.
	MaxLoadFactor float64 `json:"max_load_factor"`
	// TargetLoadFactor is what a rebalance aims for: the new bucket count
	// is sized so the shard's current load lands at this factor. Must be
	// below MaxLoadFactor. Default 0.60.
	TargetLoadFactor float64 `json:"target_load_factor"`
	// MaxDeadFraction triggers a sweep when a shard's dead-posting
	// fraction (deleted documents over indexed documents) exceeds it.
	// Default 0.25.
	MaxDeadFraction float64 `json:"max_dead_fraction"`
	// MinDeadDocs is the sweep trigger's floor: a shard is not swept for
	// fewer deleted documents than this, whatever the fraction. Default 64.
	MinDeadDocs int `json:"min_dead_docs"`
	// SlowQueryRateMax, when positive, marks the engine pressured when the
	// slow-query rate (slow queries per second, measured tick over tick)
	// exceeds it. Under pressure the rebalance threshold is lowered by
	// PressureFactor — a degrading query mix buys maintenance earlier.
	// 0 disables the signal.
	SlowQueryRateMax float64 `json:"slow_query_rate_max,omitempty"`
	// MinCacheHitRate, when positive, marks the engine pressured when the
	// block-cache hit rate falls below it. 0 disables the signal.
	MinCacheHitRate float64 `json:"min_cache_hit_rate,omitempty"`
	// FlushP95Budget, when positive, marks the engine pressured when any
	// shard's flush p95 exceeds it — slow flushes are the bucket
	// structure's own degradation signal. 0 disables the signal.
	FlushP95Budget time.Duration `json:"flush_p95_budget_ns,omitempty"`
	// PressureFactor scales MaxLoadFactor down while the engine is
	// pressured (see SlowQueryRateMax, MinCacheHitRate, FlushP95Budget).
	// Default 0.75.
	PressureFactor float64 `json:"pressure_factor"`
	// BacklogAfter is how long a wanted-but-deferred action may wait before
	// the controller reports itself backlogged (degrading readiness).
	// Default 8×Interval.
	BacklogAfter time.Duration `json:"backlog_after_ns"`
	// DecisionLog bounds the decision log: once full, each new decision
	// evicts the oldest. Default 128.
	DecisionLog int `json:"decision_log"`
}

// Normalize fills defaulted fields in.
func (t Thresholds) Normalize() Thresholds {
	if t.Interval <= 0 {
		t.Interval = 5 * time.Second
	}
	if t.MaxLoadFactor == 0 {
		t.MaxLoadFactor = 0.85
	}
	if t.TargetLoadFactor == 0 {
		t.TargetLoadFactor = 0.60
	}
	if t.MaxDeadFraction == 0 {
		t.MaxDeadFraction = 0.25
	}
	if t.MinDeadDocs == 0 {
		t.MinDeadDocs = 64
	}
	if t.PressureFactor == 0 {
		t.PressureFactor = 0.75
	}
	if t.BacklogAfter <= 0 {
		t.BacklogAfter = 8 * t.Interval
	}
	if t.DecisionLog < 1 {
		t.DecisionLog = 128
	}
	return t
}

// Validate rejects threshold combinations that could never converge.
func (t Thresholds) Validate() error {
	if t.MaxLoadFactor <= 0 || t.MaxLoadFactor > 1 {
		return fmt.Errorf("maintain: MaxLoadFactor %v outside (0, 1]", t.MaxLoadFactor)
	}
	if t.TargetLoadFactor <= 0 || t.TargetLoadFactor >= t.MaxLoadFactor {
		return fmt.Errorf("maintain: TargetLoadFactor %v must be in (0, MaxLoadFactor %v)",
			t.TargetLoadFactor, t.MaxLoadFactor)
	}
	if t.MaxDeadFraction <= 0 || t.MaxDeadFraction > 1 {
		return fmt.Errorf("maintain: MaxDeadFraction %v outside (0, 1]", t.MaxDeadFraction)
	}
	if t.PressureFactor <= 0 || t.PressureFactor > 1 {
		return fmt.Errorf("maintain: PressureFactor %v outside (0, 1]", t.PressureFactor)
	}
	return nil
}

// Config wires a controller to its engine: the thresholds plus the
// engine's (possibly nil) metrics registry and span recorder.
type Config struct {
	Thresholds
	Registry *metrics.Registry `json:"-"`
	Tracer   *trace.Recorder   `json:"-"`
}

// EngineSignals are the engine-wide observability inputs of one tick.
type EngineSignals struct {
	// SlowQueries is the cumulative slow-query count; the controller
	// differentiates it into a rate across ticks.
	SlowQueries int64 `json:"slow_queries"`
	// CacheHitRate is the engine-wide block-cache hit rate (0 with no
	// cache traffic).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// FlushP95 is the slowest shard's flush p95, in seconds (0 when the
	// engine is not metric-instrumented).
	FlushP95 float64 `json:"flush_p95_s"`
}

// ShardSignals are one shard's observability inputs of one tick — the
// values a decision about that shard is made from, and what its decision
// log entry records.
type ShardSignals struct {
	Shard int `json:"shard"`
	// LoadFactor is the shard's bucket load factor, and Buckets and
	// BucketSize its current bucket geometry.
	LoadFactor float64 `json:"load_factor"`
	Buckets    int     `json:"buckets"`
	BucketSize int     `json:"bucket_size"`
	// DeadFraction is deleted over indexed documents; DeletedDocs and
	// DocsIndexed are its numerator and denominator.
	DeadFraction float64 `json:"dead_fraction"`
	DeletedDocs  int     `json:"deleted_docs"`
	DocsIndexed  int     `json:"docs_indexed"`
	// PendingDocs is the shard's unflushed batch size in documents, and
	// PendingPostings in postings — the pending tier's in-memory volume. A
	// sustained climb means flushes are not keeping up with ingest; the
	// values ride along in every decision's signal record so the log shows
	// how much unflushed state each decision was made under.
	PendingDocs     int   `json:"pending_docs"`
	PendingPostings int64 `json:"pending_postings"`
}

// Target is the engine surface the controller drives. Implementations must
// be safe for concurrent use, must tolerate shard indexes going stale
// across a reshard (ShardSignals answers false, actions answer ErrBusy),
// and should answer ErrBusy rather than block when an action conflicts
// with a flush or reshard.
type Target interface {
	NumShards() int
	EngineSignals() EngineSignals
	ShardSignals(shard int) (ShardSignals, bool)
	SweepShard(shard int) error
	RebalanceShard(shard, buckets, bucketSize int) error
}

// Decision is one decision log entry: the signals that went in, the action
// taken and how it came out.
type Decision struct {
	Time   time.Time `json:"time"`
	Shard  int       `json:"shard"`
	Action string    `json:"action"`
	Reason string    `json:"reason"`
	// Signals and Engine are the inputs the decision was made from.
	Signals ShardSignals  `json:"signals"`
	Engine  EngineSignals `json:"engine"`
	// NewBuckets is a rebalance's chosen bucket count (0 for sweeps).
	NewBuckets int `json:"new_buckets,omitempty"`
	// Outcome is "ok", "deferred" (the target answered ErrBusy) or
	// "error: ...".
	Outcome string        `json:"outcome"`
	Dur     time.Duration `json:"dur_ns"`
}

// BacklogEntry is one overdue shard in Status: an action the controller
// has wanted to run since Since but keeps getting deferred.
type BacklogEntry struct {
	Shard  int       `json:"shard"`
	Action string    `json:"action"`
	Since  time.Time `json:"since"`
}

// Status is the controller's self-description — what /maintenance serves.
type Status struct {
	Enabled    bool       `json:"enabled"`
	Thresholds Thresholds `json:"thresholds"`
	Ticks      int64      `json:"ticks"`
	// Runs, Deferred and Errors count completed, busy-deferred and failed
	// actions by kind.
	Runs     map[string]int64 `json:"runs"`
	Deferred map[string]int64 `json:"deferred"`
	Errors   int64            `json:"errors"`
	// Backlogged is true when some wanted action has been deferred longer
	// than BacklogAfter; Backlog lists every currently overdue shard.
	Backlogged bool           `json:"backlogged"`
	Backlog    []BacklogEntry `json:"backlog,omitempty"`
	// Pressure is whether the last tick ran with the pressure-lowered
	// rebalance threshold, and SlowQueryRate that tick's measured rate.
	Pressure      bool    `json:"pressure"`
	SlowQueryRate float64 `json:"slow_query_rate"`
	// Decisions is the bounded decision log, oldest first.
	Decisions []Decision `json:"decisions"`
}

// wanted tracks an action the controller has decided a shard needs but has
// not yet completed — the backlog bookkeeping.
type wanted struct {
	action string
	since  time.Time
}

// Controller is the background maintenance loop. Create one with New,
// start it with Start, stop it with Stop; Tick runs one decision pass
// synchronously (what the loop calls, and what tests drive directly).
type Controller struct {
	target Target
	cfg    Config

	ticks    *metrics.Counter
	errsC    *metrics.Counter
	backlog  *metrics.Gauge
	pressure *metrics.Gauge
	runsC    map[string]*metrics.Counter
	defersC  map[string]*metrics.Counter
	durs     map[string]*metrics.Histogram

	// tickMu serialises decision passes: the loop's ticks and any direct
	// Tick calls never interleave.
	tickMu sync.Mutex

	mu         sync.Mutex
	decisions  []Decision // ring, capacity cfg.DecisionLog
	decNext    int
	nTicks     int64
	runs       map[string]int64
	defers     map[string]int64
	errs       int64
	want       map[int]wanted
	lastTickAt time.Time
	lastSlow   int64
	lastRate   float64
	lastPress  bool

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a controller for target. The thresholds are normalized and
// validated; the registry and tracer may be nil.
func New(target Target, cfg Config) (*Controller, error) {
	cfg.Thresholds = cfg.Thresholds.Normalize()
	if err := cfg.Thresholds.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		target:    target,
		cfg:       cfg,
		decisions: make([]Decision, 0, cfg.DecisionLog),
		runs:      map[string]int64{},
		defers:    map[string]int64{},
		want:      map[int]wanted{},
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		runsC:     map[string]*metrics.Counter{},
		defersC:   map[string]*metrics.Counter{},
		durs:      map[string]*metrics.Histogram{},
	}
	reg := cfg.Registry
	c.ticks = reg.Counter("maintenance_ticks_total")
	c.errsC = reg.Counter("maintenance_errors_total")
	c.backlog = reg.Gauge("maintenance_backlog")
	c.pressure = reg.Gauge("maintenance_pressure")
	for _, a := range []string{ActionSweep, ActionRebalance} {
		c.runsC[a] = reg.Counter(`maintenance_runs_total{action="` + a + `"}`)
		c.defersC[a] = reg.Counter(`maintenance_deferred_total{action="` + a + `"}`)
		c.durs[a] = reg.Histogram(`maintenance_seconds{action="`+a+`"}`, nil)
	}
	return c, nil
}

// Start launches the background loop: one Tick every Interval until Stop.
// Idempotent.
func (c *Controller) Start() {
	c.startOnce.Do(func() { go c.run() })
}

// Stop halts the loop and waits for any in-flight tick to finish.
// Idempotent; safe to call on a never-started controller.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.startOnce.Do(func() { close(c.done) }) // never started: nothing to wait for
	<-c.done
}

func (c *Controller) run() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.Tick()
		}
	}
}

// Tick runs one decision pass: read the engine signals, decide per shard,
// execute what is due (deferring busy shards), and update the backlog.
func (c *Controller) Tick() {
	c.tickMu.Lock()
	defer c.tickMu.Unlock()

	now := time.Now()
	c.ticks.Inc()
	es := c.target.EngineSignals()

	c.mu.Lock()
	c.nTicks++
	rate := 0.0
	if !c.lastTickAt.IsZero() {
		if dt := now.Sub(c.lastTickAt).Seconds(); dt > 0 {
			rate = float64(es.SlowQueries-c.lastSlow) / dt
		}
	}
	c.lastTickAt, c.lastSlow = now, es.SlowQueries
	c.mu.Unlock()

	pressure, why := c.underPressure(es, rate)
	loadThreshold := c.cfg.MaxLoadFactor
	if pressure {
		loadThreshold *= c.cfg.PressureFactor
		c.pressure.Set(1)
	} else {
		c.pressure.Set(0)
	}

	n := c.target.NumShards()
	for i := 0; i < n; i++ {
		sig, ok := c.target.ShardSignals(i)
		if !ok {
			continue
		}
		sig.Shard = i // the loop index is authoritative, whatever the Target filled in
		switch {
		// A sweep can empty enough short-list postings to fix the load
		// factor on its own, so it goes first; the load factor is
		// re-checked on the next tick.
		case sig.DeadFraction > c.cfg.MaxDeadFraction && sig.DeletedDocs >= c.cfg.MinDeadDocs:
			reason := fmt.Sprintf("dead_fraction %.3f > %.3f (deleted %d)",
				sig.DeadFraction, c.cfg.MaxDeadFraction, sig.DeletedDocs)
			c.act(now, ActionSweep, sig, es, reason)
		case sig.LoadFactor > loadThreshold:
			reason := fmt.Sprintf("load_factor %.3f > %.3f", sig.LoadFactor, loadThreshold)
			if pressure {
				reason += " (pressure: " + why + ")"
			}
			c.act(now, ActionRebalance, sig, es, reason)
		default:
			c.mu.Lock()
			delete(c.want, i)
			c.mu.Unlock()
		}
	}

	c.mu.Lock()
	c.lastRate, c.lastPress = rate, pressure
	overdue := 0
	for _, w := range c.want {
		if now.Sub(w.since) > c.cfg.BacklogAfter {
			overdue++
		}
	}
	c.mu.Unlock()
	c.backlog.Set(float64(overdue))
}

// underPressure evaluates the engine-wide degradation signals.
func (c *Controller) underPressure(es EngineSignals, slowRate float64) (bool, string) {
	if c.cfg.SlowQueryRateMax > 0 && slowRate > c.cfg.SlowQueryRateMax {
		return true, fmt.Sprintf("slow_query_rate %.2f/s > %.2f/s", slowRate, c.cfg.SlowQueryRateMax)
	}
	if c.cfg.MinCacheHitRate > 0 && es.CacheHitRate > 0 && es.CacheHitRate < c.cfg.MinCacheHitRate {
		return true, fmt.Sprintf("cache_hit_rate %.3f < %.3f", es.CacheHitRate, c.cfg.MinCacheHitRate)
	}
	if c.cfg.FlushP95Budget > 0 && es.FlushP95 > c.cfg.FlushP95Budget.Seconds() {
		return true, fmt.Sprintf("flush_p95 %.4fs > %v", es.FlushP95, c.cfg.FlushP95Budget)
	}
	return false, ""
}

// growBuckets sizes a rebalance: enough buckets (at the same bucket size)
// that the shard's current load lands at the target factor.
func growBuckets(sig ShardSignals, target float64) int {
	next := int(math.Ceil(sig.LoadFactor * float64(sig.Buckets) / target))
	if next <= sig.Buckets {
		next = sig.Buckets + 1
	}
	return next
}

// act runs one maintenance action against a shard, records the decision,
// and maintains the wanted set for backlog tracking.
func (c *Controller) act(now time.Time, action string, sig ShardSignals, es EngineSignals, reason string) {
	c.mu.Lock()
	if w, ok := c.want[sig.Shard]; !ok || w.action != action {
		c.want[sig.Shard] = wanted{action: action, since: now}
	}
	c.mu.Unlock()

	d := Decision{Time: now, Shard: sig.Shard, Action: action, Reason: reason, Signals: sig, Engine: es}
	t0 := time.Now()
	var err error
	switch action {
	case ActionSweep:
		err = c.target.SweepShard(sig.Shard)
	case ActionRebalance:
		d.NewBuckets = growBuckets(sig, c.cfg.TargetLoadFactor)
		err = c.target.RebalanceShard(sig.Shard, d.NewBuckets, sig.BucketSize)
	}
	d.Dur = time.Since(t0)

	c.mu.Lock()
	switch {
	case err == nil:
		d.Outcome = "ok"
		c.runs[action]++
		delete(c.want, sig.Shard)
	case errors.Is(err, ErrBusy):
		d.Outcome = "deferred"
		c.defers[action]++
	default:
		// A failing action stays wanted: it is retried (and recounted)
		// every tick, and the backlog surfaces the stuck shard.
		d.Outcome = "error: " + err.Error()
		c.errs++
	}
	c.logDecisionLocked(d)
	c.mu.Unlock()

	switch d.Outcome {
	case "ok":
		c.runsC[action].Inc()
		c.durs[action].ObserveDuration(d.Dur)
	case "deferred":
		c.defersC[action].Inc()
	default:
		c.errsC.Inc()
	}
	c.cfg.Tracer.RecordAt("maintain", "maintain."+action,
		fmt.Sprintf("shard=%d reason=%q outcome=%s", sig.Shard, reason, d.Outcome), t0, d.Dur)
}

// logDecisionLocked appends to the bounded decision ring. Caller holds c.mu.
func (c *Controller) logDecisionLocked(d Decision) {
	if len(c.decisions) < c.cfg.DecisionLog {
		c.decisions = append(c.decisions, d)
		return
	}
	c.decisions[c.decNext] = d
	c.decNext = (c.decNext + 1) % c.cfg.DecisionLog
}

// Backlogged reports whether some wanted action has been deferred longer
// than BacklogAfter — the controller's contribution to readiness.
func (c *Controller) Backlogged() bool {
	if c == nil {
		return false
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.want {
		if now.Sub(w.since) > c.cfg.BacklogAfter {
			return true
		}
	}
	return false
}

func (c *Controller) decisionsLocked() []Decision {
	out := make([]Decision, 0, len(c.decisions))
	out = append(out, c.decisions[c.decNext:]...)
	out = append(out, c.decisions[:c.decNext]...)
	return out
}

// Status snapshots the controller for /maintenance. Nil-safe: a nil
// controller (maintenance disabled) reports Enabled false.
func (c *Controller) Status() Status {
	if c == nil {
		return Status{}
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Enabled:       true,
		Thresholds:    c.cfg.Thresholds,
		Ticks:         c.nTicks,
		Runs:          map[string]int64{},
		Deferred:      map[string]int64{},
		Errors:        c.errs,
		Pressure:      c.lastPress,
		SlowQueryRate: c.lastRate,
		Decisions:     c.decisionsLocked(),
	}
	for a, n := range c.runs {
		st.Runs[a] = n
	}
	for a, n := range c.defers {
		st.Deferred[a] = n
	}
	for shard, w := range c.want {
		if now.Sub(w.since) > c.cfg.BacklogAfter {
			st.Backlog = append(st.Backlog, BacklogEntry{Shard: shard, Action: w.action, Since: w.since})
		}
	}
	st.Backlogged = len(st.Backlog) > 0
	return st
}
