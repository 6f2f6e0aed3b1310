// Package trace records structured span events from the engine's hot paths
// — one event per flush phase, query phase, reshard or slow query — into a
// fixed-capacity ring buffer. The ring answers "what did the last N
// operations spend their time on" without unbounded memory.
//
// Like the metrics package, everything is nil-safe: recording on a nil
// *Recorder is a no-op, so disabled tracing costs one nil check on the hot
// path.
package trace

import (
	"sync"
	"time"
)

// Event is one recorded span: something named, in some scope (typically
// "engine" or "shard-3"), that started at Start and took Dur. Detail is
// free-form ("docs=120 postings=4813", a slow query's text).
type Event struct {
	Seq    uint64        `json:"seq"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Scope  string        `json:"scope"`
	Name   string        `json:"name"`
	Detail string        `json:"detail,omitempty"`
}

// Recorder keeps the most recent events in a ring buffer. Safe for
// concurrent use.
type Recorder struct {
	mu   sync.Mutex
	buf  []Event
	next int // ring write position
	n    int // events currently held (≤ len(buf))
	seq  uint64
}

// New creates a recorder holding the most recent capacity events
// (minimum 1).
func New(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Record appends one event, assigning its sequence number. No-op on a nil
// recorder.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	ev.Seq = r.seq
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// Events returns the retained events, oldest first. Nil recorder → nil.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// RecordAt records an already-measured span — the shape used when a lower
// layer (the core flush) measured its phases itself and the caller is
// publishing them. No-op on a nil recorder.
func (r *Recorder) RecordAt(scope, name, detail string, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.Record(Event{Start: start, Dur: dur, Scope: scope, Name: name, Detail: detail})
}
