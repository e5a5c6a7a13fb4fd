package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside: name, start, end, and the span that caused it. Spans stay in
// memory until the run ends and are then written to
// <out>/trace-<workload>.json.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"` // 0: a root
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

// recorder keeps the traced run's spans. The untraced run has none: every
// method on a nil *recorder does nothing, so the phases the two runs share
// call it unconditionally.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span under parent (0 for none) and returns its id.
func (rec *recorder) start(parent int, name string) int {
	if rec == nil {
		return 0
	}
	now := time.Since(rec.t0).Nanoseconds()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.spans = append(rec.spans, span{ID: len(rec.spans) + 1, Parent: parent, Name: name, StartNS: now, EndNS: -1})
	return len(rec.spans)
}

// end closes the span and returns how long it was open.
func (rec *recorder) end(id int) time.Duration {
	if rec == nil {
		return 0
	}
	now := time.Since(rec.t0).Nanoseconds()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	s := &rec.spans[id-1]
	s.EndNS = now
	return time.Duration(s.EndNS - s.StartNS)
}

func (rec *recorder) attr(id int, key string, val int64) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	s := &rec.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]int64{}
	}
	s.Attrs[key] = val
}

// time runs f inside a span.
func (rec *recorder) time(parent int, name string, f func()) time.Duration {
	id := rec.start(parent, name)
	f()
	return rec.end(id)
}

// durations returns how long each closed span of that name lasted, in the
// order they were opened: the per-layer metrics of the phases both runs
// share are read back from the spans those phases left.
func (rec *recorder) durations(name string) timed {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var out timed
	for _, s := range rec.spans {
		if s.Name == name && s.EndNS >= 0 {
			out = append(out, time.Duration(s.EndNS-s.StartNS))
		}
	}
	return out
}
