package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. A span with Count > 0
// is an aggregate: Count calls across the boundary inside its parent,
// totalling TotalUS (per-access calls are aggregated, not kept one by
// one).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Cause  int    `json:"cause,omitempty"`
	Name   string `json:"name"`
	// StartUS and EndUS are microseconds since the tracer started.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Count   int64   `json:"count,omitempty"`
	TotalUS float64 `json:"total_us,omitempty"`
}

func (s span) dur() float64 {
	if s.Count > 0 {
		return s.TotalUS
	}
	return s.EndUS - s.StartUS
}

// tracer keeps spans in memory until the run ends. Span ids start at 1;
// 0 means "no parent" or "no cause".
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.base)) / float64(time.Microsecond)
}

// begin opens a span now and returns its id.
func (t *tracer) begin(name string, parent, cause int) int {
	now := t.us(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Cause: cause,
		Name: name, StartUS: now, EndUS: now})
	return len(t.spans)
}

// end closes span id now and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := t.us(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndUS = now
	return time.Duration((s.EndUS - s.StartUS) * float64(time.Microsecond))
}

// add records a finished span with explicit times.
func (t *tracer) add(name string, parent, cause int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Cause: cause,
		Name: name, StartUS: t.us(start), EndUS: t.us(end)})
	return len(t.spans)
}

// aggregate records count calls totalling total inside parent.
func (t *tracer) aggregate(name string, parent int, count int64, total time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartUS: p.StartUS, EndUS: p.EndUS, Count: count,
		TotalUS: float64(total) / float64(time.Microsecond)})
}

// selfTime is span id's duration minus the part its children cover.
// The children of one span ran one after another on its goroutine, so
// they cover the sum of their durations.
func (t *tracer) selfTime(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.spans[id-1].dur()
	for _, s := range t.spans {
		if s.Parent == id {
			self -= s.dur()
		}
	}
	return time.Duration(max(self, 0) * float64(time.Microsecond))
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
