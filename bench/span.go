package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer: its name, start and end relative to the recorder's origin, the
// span that caused it (-1 for a root) and the iteration or request it
// belongs to.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Iter   int           `json:"iter"`
}

// spanRecorder keeps spans in memory until the run ends. It is safe for
// concurrent use; span ids are indexes into the record.
type spanRecorder struct {
	origin time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

// begin opens a span and returns its id.
func (r *spanRecorder) begin(name string, parent, iter int) int {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Iter: iter})
	return len(r.spans) - 1
}

// end closes the span.
func (r *spanRecorder) end(id int) {
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose interval is already known, such as a phase the
// program under test reports about itself.
func (r *spanRecorder) add(name string, start, end time.Duration, parent, iter int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Iter: iter})
	return len(r.spans) - 1
}

// snapshot returns a copy of the spans recorded so far; ids stay valid as
// indexes, so a span still open reads as empty instead of being dropped.
func (r *spanRecorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	for i := range out {
		if out[i].End < out[i].Start {
			out[i].End = out[i].Start
		}
	}
	return out
}

// spanTotals is the per-name aggregate of a span set.
type spanTotals struct {
	Calls int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of span durations minus what their children cover
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by the union of its direct children (clipped to the
// span, so overlapping or overhanging children are not counted twice).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ a, b time.Duration }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(x, y int) bool { return kids[x].a < kids[y].a })
		covered, cursor := time.Duration(0), s.Start
		for _, k := range kids {
			a, b := max(k.a, cursor), min(k.b, s.End)
			if b > a {
				covered += b - a
				cursor = b
			}
		}
		out[i] -= covered
	}
	return out
}

// totalsByName folds a span set by name.
func totalsByName(spans []span) map[string]spanTotals {
	self := selfTimes(spans)
	out := make(map[string]spanTotals)
	for i, s := range spans {
		t := out[s.Name]
		t.Calls++
		t.Total += s.End - s.Start
		t.Self += self[i]
		out[s.Name] = t
	}
	return out
}
