package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/comp"
	"repro/internal/comp/names"
)

// Span-window sampling: totals stay exact, adjacent same-class windows
// merge, and a partial final window flushes on Finalize.
func TestTierStateSampling(t *testing.T) {
	cs := comp.NewCounters()
	r := NewRecorder(cs, &Config{SpanInterval: 4})

	// 10 busy cycles, then 6 stall-bandwidth, then 3 idle.
	r.AddSpan(TierDN, Busy, 10)
	r.AddSpan(TierDN, StallBandwidth, 6)
	r.AddSpan(TierDN, Idle, 3)
	rt := r.Finalize("unit")

	dn := rt.Tiers[TierDN]
	if dn.Totals[Busy] != 10 || dn.Totals[StallBandwidth] != 6 || dn.Totals[Idle] != 3 {
		t.Fatalf("totals: %v", dn.Totals)
	}
	var sum uint64
	prevEnd := uint64(0)
	for _, s := range dn.Spans {
		if s.Start != prevEnd {
			t.Errorf("span gap: start %d after end %d", s.Start, prevEnd)
		}
		prevEnd = s.Start + s.Dur
		sum += s.Dur
	}
	if sum != 19 {
		t.Errorf("spans cover %d cycles, want 19", sum)
	}
	// Windows: [0,4)B [4,8)B [8,12)B-dominant(2B+2S) [12,16)S [16,19)I —
	// adjacent equal-class windows merge, so at most one span per class run.
	for i := 1; i < len(dn.Spans); i++ {
		if dn.Spans[i].Class == dn.Spans[i-1].Class {
			t.Errorf("adjacent spans %d,%d share class %v", i-1, i, dn.Spans[i].Class)
		}
	}
}

// Tick classifies each tier from counter deltas with the documented
// priority: busy > stall-bandwidth > stall-input > drain > idle.
func TestTickClassPriority(t *testing.T) {
	cs := comp.NewCounters()
	dnActive := cs.Counter(names.DNActiveCycles)
	dnStall := cs.Counter(names.DNStallCycles)
	mnActive := cs.Counter(names.MNActiveCycles)
	r := NewRecorder(cs, &Config{})

	// Cycle 1: DN moves packets, MN idle otherwise → DN busy, MN stall-input
	// (upstream DN activity means operands are on the way).
	dnActive.Add(1)
	r.Tick(false)
	// Cycle 2: DN both active and stalled → busy wins the priority.
	dnActive.Add(1)
	dnStall.Add(1)
	r.Tick(false)
	// Cycle 3: nothing anywhere, schedule exhausted → drain.
	r.Tick(true)
	// Cycle 4: nothing, not draining → idle; MN multipliers fire → busy.
	mnActive.Add(1)
	r.Tick(false)

	rt := r.Finalize("unit")
	bd := rt.Breakdown()
	dn := bd["DN"]
	if dn.Busy != 2 || dn.Drain != 1 || dn.Idle != 1 {
		t.Errorf("DN: %+v", dn)
	}
	mn := bd["MN"]
	if mn.StallInput != 2 || mn.Drain != 1 || mn.Busy != 1 {
		t.Errorf("MN: %+v", mn)
	}
	for tier, b := range bd {
		if b.Total() != 4 {
			t.Errorf("%s sums to %d, want 4", tier, b.Total())
		}
	}
}

// Sync re-baselines so bulk-attributed counter activity is not charged to
// the next ticked cycle.
func TestSyncPreventsMisattribution(t *testing.T) {
	cs := comp.NewCounters()
	dram := cs.Counter(names.DRAMReads)
	r := NewRecorder(cs, &Config{})

	// A bulk fill phase: memory busy, fabric stalled, counters bumped.
	dram.Add(500)
	r.AddSpan(TierMem, Busy, 8)
	r.AddSpanAll(StallBandwidth, 0) // no-op, just exercising the nil/zero path
	r.Sync()
	// Next ticked cycle has no new activity → MEM must be idle, not busy.
	r.Tick(false)
	rt := r.Finalize("unit")
	mem := rt.Breakdown()["MEM"]
	if mem.Busy != 8 || mem.Idle != 1 {
		t.Errorf("MEM: %+v", mem)
	}
}

// Every exported method must be a no-op on a nil recorder — the disabled
// path engine code relies on.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Sync()
	r.Tick(true)
	r.AddSpan(TierDN, Busy, 5)
	r.AddSpanAll(Idle, 5)
	r.TickN(3, false)
	if rt := r.Finalize("x"); rt != nil {
		t.Errorf("nil recorder produced a trace: %v", rt)
	}
}

// OnComplete receives the trace, labelled with the config prefix.
func TestFinalizeCallbackAndLabel(t *testing.T) {
	cs := comp.NewCounters()
	var got *RunTrace
	r := NewRecorder(cs, &Config{Label: "sweep 1", OnComplete: func(rt *RunTrace) { got = rt }})
	r.AddSpanAll(Busy, 3)
	rt := r.Finalize("MAERI GEMM fc1")
	if got != rt {
		t.Fatal("OnComplete did not receive the finalized trace")
	}
	if rt.Label != "sweep 1: MAERI GEMM fc1" {
		t.Errorf("label: %q", rt.Label)
	}
}

// WriteChrome emits well-formed trace_event JSON: one process per run, one
// named thread per tier, complete events only for non-idle spans.
func TestWriteChrome(t *testing.T) {
	cs := comp.NewCounters()
	r := NewRecorder(cs, &Config{SpanInterval: 4})
	r.AddSpan(TierMN, Busy, 8)
	r.AddSpan(TierMN, Idle, 4) // idle spans are omitted from the export
	rt := r.Finalize("unit run")

	var buf bytes.Buffer
	if err := WriteChrome(&buf, []*RunTrace{rt, nil}); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Dur  uint64         `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var busySpans, idleSpans, threadNames int
	for _, ev := range tf.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			threadNames++
		case ev.Ph == "X" && ev.Name == "busy":
			busySpans++
			if ev.Dur != 8 {
				t.Errorf("busy span dur %d, want 8", ev.Dur)
			}
		case ev.Ph == "X" && ev.Name == "idle":
			idleSpans++
		}
	}
	if threadNames != NumTiers {
		t.Errorf("%d thread_name events, want %d", threadNames, NumTiers)
	}
	if busySpans != 1 || idleSpans != 0 {
		t.Errorf("busy=%d idle=%d spans", busySpans, idleSpans)
	}
}
