package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the traced run from the
// benchmark's own code around the layer's public functions.  Times are
// wall-clock nanoseconds since the run started, so spans taken from the
// service's own trace timelines line up with the client's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	// Trace is the request ID a span shares with the server's trace of the
	// same request.
	Trace string `json:"trace,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// N is the work done inside the span, such as references simulated.
	N int64 `json:"n,omitempty"`
	// Self is the span's duration minus the part of it its children cover.
	Self int64 `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanFile is the document a traced run writes its spans to.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// tracer keeps a run's spans in memory until the run ends.  Its methods are
// safe for concurrent use, and a nil *tracer records nothing, so untraced
// code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return tm.UnixNano() - t.t0.UnixNano() }

// begin opens a span now and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes a span opened by begin, recording the work done in it.
func (t *tracer) end(id int, n int64) {
	if t == nil || id == 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].N = n
}

// add records a span whose times are already known and returns its ID.
func (t *tracer) add(parent int, name, trace string, start, end time.Time, n int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Trace: trace,
		Start: t.at(start), End: t.at(end), N: n})
	return len(t.spans)
}

// named returns a copy of the spans with one name.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// children returns, for every root span with the given name, its direct
// children by name.
func (t *tracer) children(root string) []map[string]span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	index := make(map[int]int) // root ID -> position in out
	var out []map[string]span
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == root {
			index[s.ID] = len(out)
			out = append(out, make(map[string]span))
		} else if i, ok := index[s.Parent]; ok {
			out[i][s.Name] = s
		}
	}
	return out
}

// perRef is a span's duration per unit of its work, e.g. nanoseconds per
// reference.
func perRef(s span) float64 { return ratio(float64(s.dur()), float64(s.N)) }

// durations returns the spans' durations in the given unit.
func durations(spans []span, unit time.Duration) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / float64(unit)
	}
	return out
}

// withSelfTimes returns the spans with their self times filled in.
func (t *tracer) withSelfTimes() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	children := make(map[int][]span)
	for _, s := range out {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range out {
		out[i].Self = out[i].dur() - covered(children[out[i].ID])
	}
	return out
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, s := range sorted {
		switch {
		case !open:
			curStart, curEnd, open = s.Start, s.End, true
		case s.Start > curEnd:
			total += curEnd - curStart
			curStart, curEnd = s.Start, s.End
		case s.End > curEnd:
			curEnd = s.End
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// checkSpans reports the first malformed span: one out of ID order, one
// that ends before it starts, names a parent that does not exist, or does
// not lie inside its parent.  Children inside their parents give every span
// a self time of at least zero.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.ID != i+1 {
			return fmt.Errorf("span at position %d has ID %d", i, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 0 || s.Parent > len(spans) || s.Parent == s.ID {
			return fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] lies outside its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}
