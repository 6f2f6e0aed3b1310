package obshttp

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dualindex/internal/metrics"
	"dualindex/internal/trace"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	reg := metrics.NewRegistry("testns")
	reg.Counter(`widgets_total{kind="a"}`).Add(3)
	reg.Histogram("latency_seconds", nil).Observe(0.02)
	rec := trace.New(16)
	rec.RecordAt("engine", "query", "kind=boolean", time.Unix(100, 0), time.Millisecond)
	rec.RecordAt("shard-0", "flush", "", time.Unix(101, 0), 2*time.Millisecond)

	srv := httptest.NewServer(New(Config{
		Registry:    reg,
		Stats:       func() any { return map[string]int{"docs": 42} },
		Tracer:      rec,
		SlowQueries: func() any { return []string{"slow one"} },
	}))
	defer srv.Close()

	code, ctype, body := get(t, srv, "/metrics")
	if code != 200 || !strings.Contains(ctype, "text/plain") {
		t.Errorf("/metrics: code %d type %q", code, ctype)
	}
	for _, want := range []string{
		`testns_widgets_total{kind="a"} 3`,
		"# TYPE testns_latency_seconds histogram",
		`testns_latency_seconds_count 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, _, body = get(t, srv, "/metrics.json")
	var snap map[string]any
	if code != 200 || json.Unmarshal([]byte(body), &snap) != nil {
		t.Errorf("/metrics.json: code %d, body %q", code, body)
	} else if snap["namespace"] != "testns" {
		t.Errorf("/metrics.json namespace = %v", snap["namespace"])
	}

	code, ctype, body = get(t, srv, "/stats")
	if code != 200 || !strings.Contains(ctype, "application/json") || !strings.Contains(body, `"docs": 42`) {
		t.Errorf("/stats: code %d type %q body %q", code, ctype, body)
	}

	code, _, body = get(t, srv, "/slow")
	if code != 200 || !strings.Contains(body, "slow one") {
		t.Errorf("/slow: code %d body %q", code, body)
	}

	code, ctype, body = get(t, srv, "/trace")
	if code != 200 || !strings.Contains(ctype, "ndjson") {
		t.Errorf("/trace: code %d type %q", code, ctype)
	}
	dec := json.NewDecoder(strings.NewReader(body))
	var events []trace.Event
	for dec.More() {
		var ev trace.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("/trace line %d: %v", len(events), err)
		}
		events = append(events, ev)
	}
	if len(events) != 2 || events[0].Name != "query" || events[1].Scope != "shard-0" {
		t.Errorf("/trace events = %+v", events)
	}

	code, _, body = get(t, srv, "/debug/pprof/cmdline")
	if code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline: code %d", code)
	}

	if code, _, body = get(t, srv, "/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index page: code %d body %q", code, body)
	}
	if code, _, _ = get(t, srv, "/nope"); code != 404 {
		t.Errorf("unknown path: code %d, want 404", code)
	}
}

// TestHandlerDisabledFeatures pins that a zero Config still serves (pprof
// and the index page) and answers 404 for the absent features.
func TestHandlerDisabledFeatures(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	for _, path := range []string{
		"/metrics", "/metrics.json", "/stats", "/stats?shard=0",
		"/slow", "/trace", "/healthz", "/readyz",
	} {
		if code, _, _ := get(t, srv, path); code != 404 {
			t.Errorf("%s with no backing feature: code %d, want 404", path, code)
		}
	}
	if code, _, _ := get(t, srv, "/debug/pprof/cmdline"); code != 200 {
		t.Errorf("pprof should always serve, got %d", code)
	}
}

// TestShardStatsEndpoint pins the per-shard statistics surface: /stats?shard=i
// selects one shard, bad selectors answer 400/404, and /metrics.json grows a
// "shards" array when both the registry and the per-shard source are wired.
func TestShardStatsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry("testns")
	srv := httptest.NewServer(New(Config{
		Registry: reg,
		Stats:    func() any { return map[string]int{"docs": 42} },
		ShardStats: func() []any {
			return []any{
				map[string]int{"shard": 0, "docs": 30},
				map[string]int{"shard": 1, "docs": 12},
			}
		},
	}))
	defer srv.Close()

	code, ctype, body := get(t, srv, "/stats?shard=1")
	if code != 200 || !strings.Contains(ctype, "application/json") || !strings.Contains(body, `"docs": 12`) {
		t.Errorf("/stats?shard=1: code %d type %q body %q", code, ctype, body)
	}
	// Without the selector, /stats stays the engine-wide answer.
	if code, _, body = get(t, srv, "/stats"); code != 200 || !strings.Contains(body, `"docs": 42`) {
		t.Errorf("/stats: code %d body %q", code, body)
	}
	for path, want := range map[string]int{
		"/stats?shard=2":    404, // out of range
		"/stats?shard=-1":   400,
		"/stats?shard=zero": 400,
	} {
		if code, _, _ = get(t, srv, path); code != want {
			t.Errorf("%s: code %d, want %d", path, code, want)
		}
	}

	code, _, body = get(t, srv, "/metrics.json")
	var snap map[string]any
	if code != 200 || json.Unmarshal([]byte(body), &snap) != nil {
		t.Fatalf("/metrics.json: code %d, body %q", code, body)
	}
	shards, ok := snap["shards"].([]any)
	if !ok || len(shards) != 2 {
		t.Errorf("/metrics.json shards = %v", snap["shards"])
	}
}

// TestHealthEndpoints pins /healthz and /readyz: each answers 200 or 503 by
// its own dimension, and both carry the full health state as a JSON body.
func TestHealthEndpoints(t *testing.T) {
	state := HealthState{Healthy: true, Ready: true}
	srv := httptest.NewServer(New(Config{
		Health: func() HealthState { return state },
	}))
	defer srv.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		code, ctype, body := get(t, srv, path)
		if code != 200 || !strings.Contains(ctype, "application/json") ||
			!strings.Contains(body, `"healthy": true`) {
			t.Errorf("%s healthy: code %d type %q body %q", path, code, ctype, body)
		}
	}

	// Alive but not ready — a reshard in progress: liveness
	// stays 200, readiness drops to 503 with the reason in the body.
	state = HealthState{Healthy: true, Ready: false, Reasons: []string{"resharding"}}
	if code, _, _ := get(t, srv, "/healthz"); code != 200 {
		t.Errorf("/healthz while not ready: code %d, want 200", code)
	}
	code, ctype, body := get(t, srv, "/readyz")
	if code != 503 || !strings.Contains(ctype, "application/json") ||
		!strings.Contains(body, "resharding") {
		t.Errorf("/readyz not ready: code %d type %q body %q", code, ctype, body)
	}

	state = HealthState{Healthy: false, Ready: false, Reasons: []string{"engine closed"}}
	if code, _, body = get(t, srv, "/healthz"); code != 503 || !strings.Contains(body, "engine closed") {
		t.Errorf("/healthz closed: code %d body %q", code, body)
	}
}
