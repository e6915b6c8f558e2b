package main

import (
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Start: msd(0), End: msd(100), Parent: -1},
		{Name: "a", Start: msd(10), End: msd(40), Parent: 0},
		{Name: "b", Start: msd(30), End: msd(60), Parent: 0},  // overlaps a by 10 ms
		{Name: "c", Start: msd(90), End: msd(120), Parent: 0}, // overhangs the root by 20 ms
		{Name: "a1", Start: msd(15), End: msd(20), Parent: 1},
		{Name: "lone", Start: msd(200), End: msd(230), Parent: -1},
	}
	self := selfTimes(spans)
	// root: 100 - |[10,60] ∪ [90,100]| = 100 - 60 = 40.
	want := []time.Duration{msd(40), msd(25), msd(30), msd(30), msd(5), msd(30)}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("%s: self time %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	totals := totalsByName(append(spans, span{Name: "a", Start: msd(300), End: msd(310), Parent: -1}))
	if got := totals["a"]; got.Calls != 2 || got.Total != msd(40) || got.Self != msd(35) {
		t.Errorf("totals of a = %+v, want 2 calls, 40 ms total, 35 ms self", got)
	}
}

func TestSpanRecorderKeepsIdsStable(t *testing.T) {
	rec := newSpanRecorder()
	root := rec.begin("root", -1, 3)
	child := rec.begin("child", root, 3)
	open := rec.begin("never closed", root, 3)
	rec.end(child)
	rec.end(root)
	known := rec.add("reported", time.Millisecond, 2*time.Millisecond, root, 3)
	spans := rec.snapshot()
	if len(spans) != 4 || spans[child].Parent != root || spans[known].Parent != root || spans[known].Iter != 3 {
		t.Fatalf("spans %+v", spans)
	}
	if s := spans[open]; s.End != s.Start {
		t.Errorf("a span still open must read as empty, got %v..%v", s.Start, s.End)
	}
	if s := spans[root]; s.End < spans[child].End || s.Start > spans[child].Start {
		t.Errorf("root %v..%v does not enclose child %v..%v", s.Start, s.End, spans[child].Start, spans[child].End)
	}
}
