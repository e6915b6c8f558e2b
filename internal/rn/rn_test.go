package rn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/comp"
)

func runUntilDrained(t *testing.T, n *Net, max int) {
	t.Helper()
	for i := 0; i < max; i++ {
		n.Cycle()
		if n.Drained() {
			return
		}
	}
	t.Fatalf("network not drained after %d cycles", max)
}

func TestFANReducesAndAccumulates(t *testing.T) {
	c := comp.NewCounters()
	n := New(FAN, 16, 4, c)
	var results []Result
	n.SetSink(func(r Result) { results = append(results, r) })

	// Two folds accumulate, the second is Last.
	if !n.Offer(Job{Values: []float32{1, 2, 3}, OutIdx: 7}) {
		t.Fatal("offer rejected")
	}
	n.Cycle()
	n.Offer(Job{Values: []float32{4, 5}, OutIdx: 7, Last: true})
	runUntilDrained(t, n, 20)
	if len(results) != 1 {
		t.Fatalf("results %v", results)
	}
	if results[0].Value != 15 || results[0].OutIdx != 7 || !results[0].Last {
		t.Errorf("result %+v", results[0])
	}
	if len(n.acc) != 0 { // a held entry means a missing Last job
		t.Error("accumulator leaked")
	}
	if c.Get("rn.adders_fan") != 3 { // 2 + 1 additions
		t.Errorf("fan adders %d", c.Get("rn.adders_fan"))
	}
}

func TestARTCounts3to1(t *testing.T) {
	c := comp.NewCounters()
	n := New(ART, 16, 4, c)
	var results []Result
	n.SetSink(func(r Result) { results = append(results, r) })
	n.Offer(Job{Values: []float32{1, 1, 1, 1, 1}, OutIdx: 0, Last: true})
	runUntilDrained(t, n, 20)
	if len(results) != 1 || results[0].Value != 5 {
		t.Fatalf("results %v", results)
	}
	if c.Get("rn.adders_3to1") != 2 { // 5 inputs → two 3:1 nodes
		t.Errorf("3:1 adders %d", c.Get("rn.adders_3to1"))
	}
}

func TestARTWithoutAccEmitsPartials(t *testing.T) {
	c := comp.NewCounters()
	n := New(ART, 16, 4, c)
	var results []Result
	n.SetSink(func(r Result) { results = append(results, r) })
	n.Offer(Job{Values: []float32{1, 2}, OutIdx: 3, Last: false})
	n.Cycle()
	n.Offer(Job{Values: []float32{3}, OutIdx: 3, Last: true})
	runUntilDrained(t, n, 20)
	// Plain ART has no accumulator: both partials exit.
	if len(results) != 2 {
		t.Fatalf("results %v", results)
	}
	if results[0].Last || !results[1].Last {
		t.Errorf("Last flags wrong: %+v", results)
	}
}

func TestInputCapacityPerCycle(t *testing.T) {
	c := comp.NewCounters()
	n := New(FAN, 8, 4, c)
	n.SetSink(func(Result) {})
	if !n.CanAccept(8) {
		t.Fatal("fresh network rejects full-width job")
	}
	n.Offer(Job{Values: make([]float32, 6), OutIdx: 0, Last: true})
	if n.CanAccept(4) {
		t.Error("capacity not consumed")
	}
	if n.Offer(Job{Values: make([]float32, 4), OutIdx: 1, Last: true}) {
		t.Error("over-capacity job accepted")
	}
	n.Cycle() // resets the per-cycle budget
	if !n.CanAccept(8) {
		t.Error("budget not reset after cycle")
	}
}

func TestOutputBandwidth(t *testing.T) {
	c := comp.NewCounters()
	n := New(FAN, 32, 2, c)
	var results []Result
	n.SetSink(func(r Result) { results = append(results, r) })
	for i := 0; i < 5; i++ {
		n.Offer(Job{Values: []float32{1}, OutIdx: i, Last: true})
	}
	n.Cycle() // retire + drain ≤ 2
	n.Cycle()
	if len(results) > 4 {
		t.Fatalf("output ports exceeded: %d results after 2 cycles", len(results))
	}
	runUntilDrained(t, n, 20)
	if len(results) != 5 {
		t.Errorf("total results %d", len(results))
	}
	if c.Get("rn.output_stalls") == 0 {
		t.Error("no output stalls recorded despite port pressure")
	}
}

func TestLinearLatencyIsSerial(t *testing.T) {
	c := comp.NewCounters()
	n := New(Linear, 16, 16, c)
	var got []Result
	n.SetSink(func(r Result) { got = append(got, r) })
	n.Offer(Job{Values: make([]float32, 8), OutIdx: 0, Last: true})
	for i := 0; i < 7; i++ {
		n.Cycle()
		if len(got) > 0 {
			t.Fatalf("linear chain finished after %d cycles (serial latency is 8)", i+1)
		}
	}
	n.Cycle()
	n.Cycle()
	if len(got) != 1 {
		t.Errorf("result missing after serial latency: %d", len(got))
	}
}

// Property: for any set of fold partitions, the FAN accumulator produces
// the exact sum of all values.
func TestReductionSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := uint64(seed)*0x9e3779b97f4a7c15 + 5
		next := func(m int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return int(s % uint64(m))
		}
		c := comp.NewCounters()
		n := New(FAN, 64, 8, c)
		var got float64
		done := 0
		n.SetSink(func(r Result) {
			got += float64(r.Value)
			done++
		})
		want := 0.0
		folds := 1 + next(4)
		for f := 0; f < folds; f++ {
			vals := make([]float32, 1+next(8))
			for i := range vals {
				vals[i] = float32(next(100)) / 10
				want += float64(vals[i])
			}
			for !n.Offer(Job{Values: vals, OutIdx: 0, Last: f == folds-1}) {
				n.Cycle()
			}
			n.Cycle()
		}
		for i := 0; i < 50 && !n.Drained(); i++ {
			n.Cycle()
		}
		return done == 1 && math.Abs(got-want) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{ART: "ART", ARTAcc: "ART+ACC", FAN: "FAN", Linear: "LRN"} {
		if k.String() != want {
			t.Errorf("%v != %s", k, want)
		}
	}
}
