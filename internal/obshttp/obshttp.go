// Package obshttp serves an engine's observability surface over HTTP: the
// metrics registry as Prometheus text on /metrics and as JSON on
// /metrics.json, caller-supplied statistics as JSON on /stats (per shard
// with ?shard=i), the span recorder as JSONL on /trace, the slow-query log
// as JSON on /slow, liveness and readiness on /healthz and /readyz, and the
// standard runtime profiles under /debug/pprof/. Endpoints whose feature is
// disabled answer 404, so one handler fits any Options combination.
//
// The handler is read-only and unauthenticated — bind it to localhost or a
// private interface, as with net/http/pprof itself.
package obshttp

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"dualindex/internal/metrics"
	"dualindex/internal/trace"
)

// HealthState is what /healthz and /readyz report: liveness, readiness and
// the reasons for any false answer. The field layout mirrors
// dualindex.Health so a caller can convert field by field.
type HealthState struct {
	Healthy bool     `json:"healthy"`
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

// Config says what to expose. Nil fields disable their endpoints.
type Config struct {
	// Registry backs /metrics (Prometheus text exposition format 0.0.4)
	// and /metrics.json (the registry's Snapshot).
	Registry *metrics.Registry
	// Stats backs /stats; called per request, encoded as JSON. Wire it to
	// Engine.Stats.
	Stats func() any
	// ShardStats backs /stats?shard=i (one shard's statistics) and, when
	// Registry is also set, a "shards" array in /metrics.json. Wire it to
	// Engine.ShardStats.
	ShardStats func() []any
	// Tracer backs /trace: the recorder's buffered spans, oldest first,
	// one JSON object per line.
	Tracer *trace.Recorder
	// SlowQueries backs /slow; called per request, encoded as JSON. Wire
	// it to Engine.SlowQueries.
	SlowQueries func() any
	// Health backs /healthz and /readyz: 200 when the picked state is true,
	// 503 with the reasons otherwise. Wire it to Engine.Health.
	Health func() HealthState
}

// New builds the handler for cfg.
func New(cfg Config) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Registry == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		cfg.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Registry == nil {
			http.NotFound(w, r)
			return
		}
		snap := cfg.Registry.Snapshot()
		if cfg.ShardStats != nil {
			snap["shards"] = cfg.ShardStats()
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if q := r.URL.Query().Get("shard"); q != "" {
			if cfg.ShardStats == nil {
				http.NotFound(w, r)
				return
			}
			i, err := strconv.Atoi(q)
			if err != nil || i < 0 {
				http.Error(w, fmt.Sprintf("bad shard %q: want a non-negative integer", q), http.StatusBadRequest)
				return
			}
			shards := cfg.ShardStats()
			if i >= len(shards) {
				http.Error(w, fmt.Sprintf("no shard %d: the engine has %d", i, len(shards)), http.StatusNotFound)
				return
			}
			writeJSON(w, shards[i])
			return
		}
		if cfg.Stats == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, cfg.Stats())
	})
	// /healthz answers liveness, /readyz readiness; both encode the full
	// health state, with 503 when their own dimension is false — the shape
	// load balancers and orchestration probes expect.
	health := func(pick func(HealthState) bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if cfg.Health == nil {
				http.NotFound(w, r)
				return
			}
			h := cfg.Health()
			w.Header().Set("Content-Type", "application/json")
			if !pick(h) {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(h)
		}
	}
	mux.HandleFunc("/healthz", health(func(h HealthState) bool { return h.Healthy }))
	mux.HandleFunc("/readyz", health(func(h HealthState) bool { return h.Ready }))
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		if cfg.SlowQueries == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, cfg.SlowQueries())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Tracer == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, ev := range cfg.Tracer.Events() {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
	})
	// The standard profile endpoints, on this mux rather than
	// http.DefaultServeMux so an importing program's global mux stays clean.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "dualindex observability: /metrics /metrics.json /stats /stats?shard=i /slow /trace /healthz /readyz /debug/pprof/\n")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
