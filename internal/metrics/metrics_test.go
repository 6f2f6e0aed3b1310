package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry("test")
	c := r.Counter("ops_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("ops_total"); again != c {
		t.Error("Counter is not get-or-create")
	}
	load := 0.5
	r.RegisterFunc("load", func() float64 { return load })
	load = 0.75 // a gauge is read at scrape time, not at registration
	if got := r.Snapshot()["gauges"].(map[string]float64)["load"]; got != 0.75 {
		t.Errorf("gauge = %v, want 0.75", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	h := r.Histogram("z", nil)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram accumulated")
	}
	r.RegisterFunc("f", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
	if r.Snapshot() != nil {
		t.Error("nil Snapshot not nil")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry("test")
	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	// 50 obs in (0, 0.01], 40 in (0.01, 0.1], 9 in (0.1, 1], 1 overflow.
	for i := 0; i < 50; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 40; i++ {
		h.Observe(0.05)
	}
	for i := 0; i < 9; i++ {
		h.Observe(0.5)
	}
	h.Observe(7)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	wantSum := 50*0.005 + 40*0.05 + 9*0.5 + 7
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
	if got := []int64{s.Counts[0], s.Counts[1], s.Counts[2], s.Counts[3]}; got[0] != 50 || got[1] != 40 || got[2] != 9 || got[3] != 1 {
		t.Errorf("bucket counts = %v", got)
	}
	// p50 lands exactly at the top of the first bucket; p90 at the top of
	// the second; p95 and p99 interpolate inside the third (cumulative 90
	// below it); p100 hits the overflow and clamps to the last finite bound.
	if p := s.Quantile(0.50); p != 0.01 {
		t.Errorf("p50 = %v, want 0.01", p)
	}
	if p := s.Quantile(0.90); p != 0.1 {
		t.Errorf("p90 = %v, want 0.1", p)
	}
	if p := s.Quantile(0.95); p <= 0.1 || p > 1 {
		t.Errorf("p95 = %v, want in (0.1, 1]", p)
	}
	if p := s.Quantile(0.99); p <= 0.1 || p > 1 {
		t.Errorf("p99 = %v, want in (0.1, 1]", p)
	}
	if p := s.Quantile(1); p != 1 {
		t.Errorf("p100 = %v, want clamp to 1", p)
	}
	if s.P50 != s.Quantile(0.50) || s.P95 != s.Quantile(0.95) || s.P99 != s.Quantile(0.99) {
		t.Error("precomputed quantiles disagree with Quantile")
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := newHistogram(nil)
	if q := h.Snapshot().Quantile(0.99); q != 0 {
		t.Errorf("empty histogram p99 = %v, want 0", q)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry("dualindex")
	r.Counter(`queries_total{kind="boolean"}`).Add(3)
	r.Counter(`queries_total{kind="vector"}`).Add(2)
	r.RegisterFunc("pending_docs", func() float64 { return 17 })
	r.RegisterFunc(`cache_hits_total{shard="0"}`, func() float64 { return 9 })
	h := r.Histogram(`flush_phase_seconds{phase="plan",shard="0"}`, []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE dualindex_queries_total counter",
		`dualindex_queries_total{kind="boolean"} 3`,
		`dualindex_queries_total{kind="vector"} 2`,
		"# TYPE dualindex_pending_docs gauge",
		"dualindex_pending_docs 17",
		`dualindex_cache_hits_total{shard="0"} 9`,
		"# TYPE dualindex_flush_phase_seconds histogram",
		`dualindex_flush_phase_seconds_bucket{phase="plan",shard="0",le="0.001"} 1`,
		`dualindex_flush_phase_seconds_bucket{phase="plan",shard="0",le="0.01"} 1`,
		`dualindex_flush_phase_seconds_bucket{phase="plan",shard="0",le="+Inf"} 2`,
		`dualindex_flush_phase_seconds_sum{phase="plan",shard="0"} 0.5005`,
		`dualindex_flush_phase_seconds_count{phase="plan",shard="0"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per base name even with several series.
	if n := strings.Count(out, "# TYPE dualindex_queries_total counter"); n != 1 {
		t.Errorf("TYPE line emitted %d times", n)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry("ns")
	r.Counter("a_total").Add(2)
	r.RegisterFunc("b", func() float64 { return 3 })
	r.RegisterFunc("c", func() float64 { return 4 })
	r.Histogram("d_seconds", nil).Observe(0.1)
	snap := r.Snapshot()
	if snap["namespace"] != "ns" {
		t.Errorf("namespace = %v", snap["namespace"])
	}
	if snap["counters"].(map[string]int64)["a_total"] != 2 {
		t.Error("counter missing from snapshot")
	}
	gs := snap["gauges"].(map[string]float64)
	if gs["b"] != 3 || gs["c"] != 4 {
		t.Errorf("gauges = %v", gs)
	}
	if hs := snap["histograms"].(map[string]HistogramSnapshot)["d_seconds"]; hs.Count != 1 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry("t")
	h := r.Histogram("h", []float64{1, 2, 3})
	c := r.Counter("c")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 5))
				c.Inc()
			}
		}(g)
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Errorf("histogram count = %d, want 8000", s.Count)
	}
	var bucketSum int64
	for _, b := range s.Counts {
		bucketSum += b
	}
	if bucketSum != 8000 {
		t.Errorf("bucket sum = %d, want 8000", bucketSum)
	}
	// 8 goroutines × 1000 obs of (0+1+2+3+4)/5 mean 2 → sum 16000.
	if math.Abs(s.Sum-16000) > 1e-6 {
		t.Errorf("sum = %v, want 16000", s.Sum)
	}
}
