package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index of the
// span that was open when this one began (-1 for a repetition's root), so the
// spans of one repetition form a tree under its root.
type span struct {
	Name   string
	Start  int64 // ns since the tracer's origin
	End    int64
	Parent int
	Rep    int
}

// tracer keeps spans in memory and writes them when the run ends. A nil
// *tracer is the untraced run: every method is a no-op, the same contract as
// the repo's nil metrics registry and nil decision recorder.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span indexes
	rep    int
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	return t.beginAt(name, time.Now())
}

func (t *tracer) beginAt(name string, at time.Time) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(at.Sub(t.origin)), Parent: parent, Rep: t.rep})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned. Spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.endAt(id, time.Now())
}

func (t *tracer) endAt(id int, at time.Time) {
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.spans[id].End = int64(at.Sub(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// leaf records a finished childless span from timestamps the caller already
// took for its latency samples, so tracing adds no clock reads on hot paths.
func (t *tracer) leaf(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.endAt(t.beginAt(name, start), end)
}

// selfTimes returns each span's self time: its duration minus the part its
// direct children cover. Children of one parent never overlap (one driver
// goroutine), so over any subtree the self times sum to the root's duration.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// spanRecord is the on-disk form, one JSON object per line. (workload, id)
// names a span; parent refers to an id of the same workload.
type spanRecord struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
}

// writeFile writes the spans as JSON lines, replacing path.
func (t *tracer) writeFile(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if err := enc.Encode(spanRecord{ID: i, Name: s.Name, StartNS: s.Start, EndNS: s.End,
			Parent: s.Parent, Workload: workload, Rep: s.Rep}); err != nil {
			f.Close()
			return fmt.Errorf("bench: span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("bench: span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: span file: %w", err)
	}
	return nil
}
