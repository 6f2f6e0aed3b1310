package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Span is one harness-side trace record: something named that started and
// ended (nanoseconds since the repetition began), caused by Parent (0 =
// root). Op is the script index of the engine call behind it, -1 for the
// structural spans (repetition, phase) and for a flush's phase children.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory for the whole run; they are written once,
// at exit, so tracing never does I/O inside a timed region.
type spanLog struct {
	t0    time.Time
	spans []Span
}

func (l *spanLog) add(parent, op int, name string, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, Span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(),
	})
	return id
}

// extend stretches a structural span to cover a child that ended later.
func (l *spanLog) extend(id int, end time.Time) {
	if e := end.Sub(l.t0).Nanoseconds(); e > l.spans[id-1].End {
		l.spans[id-1].End = e
	}
}

func (l *spanLog) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// selfTimes returns each span's duration minus the part its children
// cover, and an error if any parent's children outlast it — the invariant
// that makes "self time" meaningful.
func selfTimes(spans []Span) (map[int]time.Duration, error) {
	self := make(map[int]time.Duration, len(spans))
	dur := make(map[int]int64, len(spans))
	for _, s := range spans {
		dur[s.ID] = s.End - s.Start
		self[s.ID] += time.Duration(s.End - s.Start)
	}
	children := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	for id, c := range children {
		if c > dur[id] {
			return self, fmt.Errorf("span %d: children last %dns, parent %dns", id, c, dur[id])
		}
	}
	return self, nil
}
