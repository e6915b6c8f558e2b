package mn

import (
	"fmt"
	"testing"

	"repro/internal/comp"
)

func newTestArray(t *testing.T, n int) (*Array, *comp.Counters) {
	t.Helper()
	c := comp.NewCounters()
	return NewArray(n, 4, c), c
}

// queued is the total of operands waiting in the switches' FIFOs.
func queued(a *Array) int {
	n := 0
	for i := range a.ms {
		n += a.ms[i].in.Len()
	}
	return n
}

// pop drains VN vn's step seq the way flexRun.Control does: the VN's
// member table into AppendPop.
func pop(a *Array, vn, seq int) []float32 {
	v, _ := a.AppendPop(nil, a.VNs()[vn], seq)
	return v
}

func TestConfigureVNs(t *testing.T) {
	a, _ := newTestArray(t, 8)
	if err := a.ConfigureVNs([][]int{{0, 1, 2}, {3, 4, 5}}); err != nil {
		t.Fatal(err)
	}
	if err := a.ConfigureVNs([][]int{{0, 1}, {1, 2}}); err == nil {
		t.Error("overlapping VNs accepted")
	}
	if err := a.ConfigureVNs([][]int{{0, 99}}); err == nil {
		t.Error("out-of-range member accepted")
	}
}

func TestMultiplyFlow(t *testing.T) {
	a, c := newTestArray(t, 4)
	if err := a.ConfigureVNs([][]int{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	// Load stationary weights, then stream one input per switch.
	a.Deliver(0, comp.Packet{Value: 2, Kind: comp.WeightPkt})
	a.Deliver(1, comp.Packet{Value: 3, Kind: comp.WeightPkt})
	a.Deliver(0, comp.Packet{Value: 10, Kind: comp.InputPkt, Seq: 0})
	a.Deliver(1, comp.Packet{Value: 10, Kind: comp.InputPkt, Seq: 0})
	a.Cycle()
	if !a.ReadyVN(0, 0, 2) {
		t.Fatal("VN not ready after multiply")
	}
	values := pop(a, 0, 0)
	if len(values) != 2 || values[0] != 20 || values[1] != 30 {
		t.Errorf("products %v", values)
	}
	if c.Get("mn.mults") != 2 {
		t.Errorf("mults = %d", c.Get("mn.mults"))
	}
	if !a.Idle() {
		t.Error("array not idle after pop")
	}
}

func TestInputWithoutStationaryStalls(t *testing.T) {
	a, c := newTestArray(t, 2)
	a.Deliver(0, comp.Packet{Value: 5, Kind: comp.InputPkt, Seq: 0})
	a.Cycle()
	if c.Get("mn.mults") != 0 {
		t.Error("multiplied without stationary operand")
	}
	a.Deliver(0, comp.Packet{Value: 4, Kind: comp.WeightPkt})
	a.Cycle()
	if c.Get("mn.mults") != 1 {
		t.Error("did not multiply once weight arrived")
	}
}

func TestFIFOBackpressure(t *testing.T) {
	a, _ := newTestArray(t, 1)
	a.Deliver(0, comp.Packet{Value: 1, Kind: comp.WeightPkt})
	for i := 0; i < 4; i++ {
		if !a.Deliver(0, comp.Packet{Value: 1, Kind: comp.InputPkt, Seq: i}) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if a.Deliver(0, comp.Packet{Value: 1, Kind: comp.InputPkt, Seq: 4}) {
		t.Error("push above FIFO capacity accepted")
	}
	if a.CanDeliver(0, comp.Packet{Kind: comp.InputPkt}) {
		t.Error("CanDeliver true on full FIFO")
	}
}

func TestPsumLatchLimitsRunAhead(t *testing.T) {
	a, _ := newTestArray(t, 1)
	a.ConfigureVNs([][]int{{0}})
	a.Deliver(0, comp.Packet{Value: 1, Kind: comp.WeightPkt})
	for i := 0; i < 4; i++ {
		a.Deliver(0, comp.Packet{Value: float32(i), Kind: comp.InputPkt, Seq: i})
	}
	a.Cycle()
	a.Cycle()
	a.Cycle() // latch depth 2: the third multiply must stall
	if got := queued(a); got != 2 {
		t.Errorf("FIFO occupancy %d, want 2 (stalled on full latch)", got)
	}
	pop(a, 0, 0)
	a.Cycle()
	if got := queued(a); got != 1 {
		t.Errorf("occupancy after drain %d, want 1", got)
	}
}

func TestGenerationShadowSwap(t *testing.T) {
	a, c := newTestArray(t, 1)
	a.ConfigureVNs([][]int{{0}})
	// Round 1 stationary in the shadow, then its input promotes it.
	a.Deliver(0, comp.Packet{Value: 3, Kind: comp.WeightPkt, Gen: 1})
	a.Deliver(0, comp.Packet{Value: 2, Kind: comp.InputPkt, Seq: 0, Gen: 1})
	a.Cycle()
	v := pop(a, 0, 0)
	if len(v) != 1 || v[0] != 6 {
		t.Fatalf("gen-1 product %v", v)
	}
	// Round 2 shadow can load while round 1 was still computing.
	a.Deliver(0, comp.Packet{Value: 10, Kind: comp.WeightPkt, Gen: 2})
	a.Deliver(0, comp.Packet{Value: 5, Kind: comp.InputPkt, Seq: 1, Gen: 2})
	a.Cycle()
	v = pop(a, 0, 1)
	if len(v) != 1 || v[0] != 50 {
		t.Fatalf("gen-2 product %v", v)
	}
	if c.Get("mn.mults") != 2 {
		t.Errorf("mults %d", c.Get("mn.mults"))
	}
}

func TestShadowOverwriteRules(t *testing.T) {
	a, _ := newTestArray(t, 1)
	// Unconsumed shadow + empty FIFO: overwrite allowed (the round had no
	// inputs for this switch).
	a.Deliver(0, comp.Packet{Value: 1, Kind: comp.WeightPkt, Gen: 1})
	if !a.CanDeliver(0, comp.Packet{Kind: comp.WeightPkt, Gen: 2}) {
		t.Error("safe shadow overwrite rejected")
	}
	if !a.Deliver(0, comp.Packet{Value: 2, Kind: comp.WeightPkt, Gen: 2}) {
		t.Error("safe shadow overwrite failed")
	}
	// Unconsumed shadow + queued input: overwrite must be rejected.
	a.Deliver(0, comp.Packet{Value: 7, Kind: comp.InputPkt, Seq: 0, Gen: 2})
	if a.CanDeliver(0, comp.Packet{Kind: comp.WeightPkt, Gen: 3}) {
		t.Error("unsafe shadow overwrite allowed by CanDeliver")
	}
	if a.Deliver(0, comp.Packet{Value: 3, Kind: comp.WeightPkt, Gen: 3}) {
		t.Error("unsafe shadow overwrite accepted by Deliver")
	}
}

func TestInputStallsUntilItsGeneration(t *testing.T) {
	a, c := newTestArray(t, 1)
	a.ConfigureVNs([][]int{{0}})
	// Input of gen 1 arrives before its weight: must stall.
	a.Deliver(0, comp.Packet{Value: 2, Kind: comp.InputPkt, Seq: 0, Gen: 1})
	a.Cycle()
	if c.Get("mn.mults") != 0 {
		t.Fatal("multiplied before the generation's stationary arrived")
	}
	a.Deliver(0, comp.Packet{Value: 4, Kind: comp.WeightPkt, Gen: 1})
	a.Cycle()
	if c.Get("mn.mults") != 1 {
		t.Error("stalled input never fired")
	}
	v := pop(a, 0, 0)
	if v[0] != 8 {
		t.Errorf("product %v", v)
	}
}

func TestAppendPopMatchesSeqOnly(t *testing.T) {
	a, _ := newTestArray(t, 2)
	a.ConfigureVNs([][]int{{0, 1}})
	a.Deliver(0, comp.Packet{Value: 1, Kind: comp.WeightPkt})
	a.Deliver(1, comp.Packet{Value: 1, Kind: comp.WeightPkt})
	// Switch 0 has steps 0 and 1; switch 1 only step 1.
	a.Deliver(0, comp.Packet{Value: 10, Kind: comp.InputPkt, Seq: 0})
	a.Deliver(0, comp.Packet{Value: 20, Kind: comp.InputPkt, Seq: 1})
	a.Deliver(1, comp.Packet{Value: 30, Kind: comp.InputPkt, Seq: 1})
	a.Cycle()
	a.Cycle()
	if !a.ReadyMembers([]int{0, 1}, 0, 1) {
		t.Fatal("step 0 not ready with expect=1")
	}
	v, _ := a.AppendPop(nil, []int{0, 1}, 0)
	if len(v) != 1 || v[0] != 10 {
		t.Fatalf("step 0 pop %v", v)
	}
	if !a.ReadyMembers([]int{0, 1}, 1, 2) {
		t.Fatal("step 1 not ready")
	}
	v, _ = a.AppendPop(nil, []int{0, 1}, 1)
	if len(v) != 2 {
		t.Fatalf("step 1 pop %v", v)
	}
}

func TestQuiescentSet(t *testing.T) {
	a, _ := newTestArray(t, 2)
	a.ConfigureVNs([][]int{{0}})
	a.Deliver(0, comp.Packet{Value: 1, Kind: comp.WeightPkt})
	a.Deliver(0, comp.Packet{Value: 2, Kind: comp.InputPkt, Seq: 0})
	if a.QuiescentSet([]int{0}) {
		t.Error("quiescent with queued input")
	}
	a.Cycle()
	if a.QuiescentSet([]int{0}) {
		t.Error("quiescent with latched psum")
	}
	pop(a, 0, 0)
	if !a.QuiescentSet([]int{0}) {
		t.Error("not quiescent after drain")
	}
}

// state is everything a refused DeliverAll must leave alone: every
// counter, each switch's queue, FIFO statistics and registers, and the
// busy set.
func state(a *Array, c *comp.Counters) string {
	return fmt.Sprintf("%v %d %v", c.Snapshot(), a.nbusy, a.ms)
}

// TestDeliverAllIsAtomic: a multicast lands on every destination or on
// none. One destination with a full operand FIFO, or with a shadow
// register its queued inputs still need, refuses the packet for all of
// them — no switch receives it and no counter moves — and once that switch
// drains, the same delivery lands everywhere exactly once.
func TestDeliverAllIsAtomic(t *testing.T) {
	t.Run("full FIFO", func(t *testing.T) {
		a, c := newTestArray(t, 4)
		for i := 0; i < 4; i++ {
			if !a.Deliver(2, comp.Packet{Kind: comp.InputPkt, Seq: i}) {
				t.Fatal("setup: push refused below capacity")
			}
		}
		before := state(a, c)
		in := comp.Packet{Value: 5, Kind: comp.InputPkt, Seq: 9}
		if a.DeliverAll([]int{0, 1, 2, 3}, in) {
			t.Fatal("multicast accepted with destination 2 full")
		}
		if after := state(a, c); after != before {
			t.Errorf("refused multicast changed state:\n before %s\n after  %s", before, after)
		}
		if got := queued(a); got != 4 {
			t.Errorf("%d operands queued, want only switch 2's 4", got)
		}
		// Drain switch 2 (stationary, multiply, pop its products) and retry.
		a.Deliver(2, comp.Packet{Value: 1, Kind: comp.WeightPkt})
		if err := a.ConfigureVNs([][]int{{2}}); err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < 4; seq++ {
			a.Cycle()
			pop(a, 0, seq)
		}
		if !a.DeliverAll([]int{0, 1, 2, 3}, in) {
			t.Fatal("multicast refused after the full switch drained")
		}
		for ms := range a.ms {
			if n := a.ms[ms].in.Len(); n != 1 {
				t.Errorf("switch %d holds %d operands, want 1", ms, n)
			}
		}
	})
	t.Run("pending shadow", func(t *testing.T) {
		a, c := newTestArray(t, 3)
		// Switch 1's generation-1 shadow still has a queued input to
		// promote it: a generation-2 weight may not overwrite it yet.
		a.Deliver(1, comp.Packet{Value: 3, Kind: comp.WeightPkt, Gen: 1})
		a.Deliver(1, comp.Packet{Value: 2, Kind: comp.InputPkt, Gen: 1})
		before := state(a, c)
		w := comp.Packet{Value: 7, Kind: comp.WeightPkt, Gen: 2}
		if a.DeliverAll([]int{0, 1, 2}, w) {
			t.Fatal("weight multicast accepted over a pending shadow")
		}
		if after := state(a, c); after != before {
			t.Errorf("refused multicast changed state:\n before %s\n after  %s", before, after)
		}
		for _, ms := range []int{0, 2} {
			if a.ms[ms].hasShadow {
				t.Errorf("switch %d received the refused weight", ms)
			}
		}
		if err := a.ConfigureVNs([][]int{{1}}); err != nil {
			t.Fatal(err)
		}
		a.Cycle() // promotes the shadow and multiplies
		pop(a, 0, 0)
		if !a.DeliverAll([]int{0, 1, 2}, w) {
			t.Fatal("weight multicast refused after the shadow was promoted")
		}
		if got := c.Get("mn.weight_loads"); got != 4 {
			t.Errorf("mn.weight_loads = %d, want 4: the setup load and one per destination", got)
		}
	})
}
