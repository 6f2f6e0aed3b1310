package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingKeepsMostRecent(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Name: string(rune('a' + i))})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(7 + i)
		wantName := string(rune('a' + 6 + i))
		if ev.Seq != wantSeq || ev.Name != wantName {
			t.Errorf("event %d = seq %d name %q, want seq %d name %q",
				i, ev.Seq, ev.Name, wantSeq, wantName)
		}
	}
	if r.seq != 10 {
		t.Errorf("seq = %d, want 10", r.seq)
	}
}

func TestPartialRing(t *testing.T) {
	r := New(8)
	r.Record(Event{Name: "one"})
	r.Record(Event{Name: "two"})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Name != "one" || evs[1].Name != "two" {
		t.Errorf("events = %+v", evs)
	}
}

func TestSpan(t *testing.T) {
	r := New(4)
	start := time.Now()
	r.RecordAt("shard-0", "flush.plan", "docs=3", start, time.Millisecond)
	evs := r.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	ev := evs[0]
	if ev.Scope != "shard-0" || ev.Name != "flush.plan" || ev.Detail != "docs=3" ||
		!ev.Start.Equal(start) || ev.Dur != time.Millisecond || ev.Seq != 1 {
		t.Errorf("event = %+v", ev)
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(Event{})
	r.RecordAt("a", "b", "", time.Now(), time.Second)
	r.SetSink(&strings.Builder{})
	if r.Events() != nil || r.SinkErr() != nil {
		t.Error("nil recorder not inert")
	}
}

func TestJSONLSink(t *testing.T) {
	var sb strings.Builder
	r := New(2) // smaller than the event count: the sink must still see all
	r.SetSink(&sb)
	for i := 0; i < 5; i++ {
		r.RecordAt("engine", "query", "q", time.Now(), time.Duration(i))
	}
	if err := r.SinkErr(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	n := 0
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if ev.Seq != uint64(n+1) || ev.Name != "query" {
			t.Errorf("line %d = %+v", n, ev)
		}
		n++
	}
	if n != 5 {
		t.Errorf("sink got %d lines, want 5", n)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("sink broken")
}

func TestSinkErrorStopsTeeing(t *testing.T) {
	r := New(4)
	fw := &failWriter{}
	r.SetSink(fw)
	r.Record(Event{Name: "a"})
	r.Record(Event{Name: "b"})
	if r.SinkErr() == nil {
		t.Fatal("sink error not surfaced")
	}
	if fw.n != 1 {
		t.Errorf("sink written %d times after error, want 1", fw.n)
	}
	// The ring still records.
	if len(r.Events()) != 2 {
		t.Errorf("ring lost events after sink error")
	}
}

// TestConcurrentRecord hammers Record from several goroutines with a sink
// attached — a bytes.Buffer is not concurrency-safe, so this pins that the
// recorder serializes sink writes (the race detector catches a regression).
func TestConcurrentRecord(t *testing.T) {
	r := New(64)
	var sink bytes.Buffer
	r.SetSink(&sink)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.RecordAt("s", "n", "", time.Now(), 0)
			}
		}()
	}
	wg.Wait()
	if r.seq != 800 {
		t.Errorf("seq = %d, want 800", r.seq)
	}
	if len(r.Events()) != 64 {
		t.Errorf("ring holds %d, want 64", len(r.Events()))
	}
	if got := strings.Count(sink.String(), "\n"); got != 800 {
		t.Errorf("sink holds %d lines, want 800", got)
	}
	if err := r.SinkErr(); err != nil {
		t.Errorf("SinkErr = %v", err)
	}
}
