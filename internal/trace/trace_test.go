package trace

import (
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
	if r.Events() != nil {
		t.Error("nil recorder not inert")
	}
}

// TestConcurrentRecord hammers Record from several goroutines: every event
// gets its own sequence number and the ring stays at its capacity (the race
// detector catches a regression in the locking).
func TestConcurrentRecord(t *testing.T) {
	r := New(64)
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
}
