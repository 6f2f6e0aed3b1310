// Package metrics is the engine's lock-cheap instrumentation substrate: a
// named registry of counters, gauges and fixed-bucket latency histograms,
// exposable as Prometheus text format or as a JSON snapshot. It exists so
// the hot paths — batch flushes, query evaluation, cache and disk I/O — can
// record what they do without perturbing how they do it.
//
// Two properties shape the design:
//
//   - Recording is wait-free: counters and histogram buckets are atomic
//     adds, the histogram sum is a compare-and-swap loop on float bits, and
//     no metric method allocates. The registry's map lookups happen once,
//     at wiring time; hot paths hold *Counter/*Histogram handles.
//
//   - Everything is nil-safe: every method on a nil *Counter, *Histogram
//     or *Registry is a no-op (or a zero answer), so a caller
//     can thread possibly-disabled instrumentation through without
//     branching. Disabled instrumentation costs one nil check.
//
// Series names follow the Prometheus convention and may carry labels
// inline: "flush_phase_seconds{phase=\"plan\",shard=\"0\"}". Series sharing
// the base name (the part before '{') are grouped under one # TYPE line by
// WritePrometheus.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a cumulative, monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// DefBuckets are the default latency bucket upper bounds in seconds,
// spanning the ten-microsecond flushes of an in-memory simulated store to
// the multi-second batches of a cold persistent index.
var DefBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// Histogram counts observations into fixed buckets and tracks their sum.
// Observation is wait-free: one atomic add on the bucket, one CAS loop on
// the sum. Bucket bounds are upper bounds; one implicit +Inf bucket catches
// the overflow.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the sum
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{
		bounds:  bounds,
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a consistent-enough copy of a histogram: counts are
// read bucket by bucket, so a snapshot taken mid-observation can be off by
// the in-flight observation — fine for monitoring, never torn per bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // per bucket, last is +Inf overflow
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
}

// Snapshot copies the histogram's state and precomputes p50/p95/p99. A nil
// histogram snapshots to the zero value.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket holding the target rank, the standard
// histogram_quantile estimate. Observations beyond the last finite bound
// report that bound. With no observations it reports 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := int64(0)
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := float64(0)
	for i, c := range s.Counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			if i == len(s.Bounds) { // +Inf bucket: clamp to last finite bound
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (rank - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Registry is a named collection of metrics. Get-or-create accessors make
// wiring idempotent; the registry name becomes the Prometheus namespace
// prefix ("dualindex" → "dualindex_flush_seconds"). Safe for concurrent
// use; hot paths should hold the returned handles rather than re-looking
// names up.
type Registry struct {
	namespace string

	mu       sync.RWMutex
	counters map[string]*Counter
	funcs    map[string]func() float64
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry whose metrics are exposed under the
// given namespace prefix.
func NewRegistry(namespace string) *Registry {
	return &Registry{
		namespace: namespace,
		counters:  map[string]*Counter{},
		funcs:     map[string]func() float64{},
		hists:     map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// RegisterFunc registers a gauge whose value is computed at scrape time —
// the bridge for counters that already live elsewhere (cache hit counts,
// per-disk op counts, bucket load factors). fn must be safe to call from
// any goroutine. No-op on a nil registry.
func (r *Registry) RegisterFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds (nil → DefBuckets) on first use; the bounds of an existing
// histogram are kept. A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// splitName separates a series name into its base and its inline label
// block: "a_total{shard=\"0\"}" → ("a_total", `{shard="0"}`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// withLabel merges one more label into an inline label block.
func withLabel(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus writes every metric in Prometheus text exposition format
// (version 0.0.4): counters and gauges as single samples, histograms as
// cumulative _bucket series with le labels plus _sum and _count. Series are
// sorted by name; series sharing a base name share one # TYPE line. No-op
// on a nil registry.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	prefix := ""
	if r.namespace != "" {
		prefix = r.namespace + "_"
	}
	typed := map[string]bool{}
	emitType := func(base, kind string) error {
		if typed[base] {
			return nil
		}
		typed[base] = true
		_, err := fmt.Fprintf(w, "# TYPE %s%s %s\n", prefix, base, kind)
		return err
	}
	for _, name := range sortedKeys(r.counters) {
		base, labels := splitName(name)
		if err := emitType(base, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s%s %d\n", prefix, base, labels, r.counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.funcs) {
		base, labels := splitName(name)
		if err := emitType(base, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s%s %v\n", prefix, base, labels, r.funcs[name]()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.hists) {
		base, labels := splitName(name)
		if err := emitType(base, "histogram"); err != nil {
			return err
		}
		s := r.hists[name].Snapshot()
		cum := int64(0)
		for i, c := range s.Counts {
			cum += c
			le := "+Inf"
			if i < len(s.Bounds) {
				le = fmt.Sprintf("%v", s.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s%s_bucket%s %d\n",
				prefix, base, withLabel(labels, fmt.Sprintf("le=%q", le)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s%s_sum%s %v\n", prefix, base, labels, s.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s_count%s %d\n", prefix, base, labels, s.Count); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns a JSON-friendly dump of every metric: counter and gauge
// values by name, histogram snapshots (with p50/p95/p99) by name. Nil
// registry → nil map.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	counters := map[string]int64{}
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := map[string]float64{}
	for name, fn := range r.funcs {
		gauges[name] = fn()
	}
	hists := map[string]HistogramSnapshot{}
	for name, h := range r.hists {
		hists[name] = h.Snapshot()
	}
	return map[string]any{
		"namespace":  r.namespace,
		"counters":   counters,
		"gauges":     gauges,
		"histograms": hists,
	}
}
