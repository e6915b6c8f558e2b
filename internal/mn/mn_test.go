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

// pop drains generation-0 VN vn's step seq the way flexRun.Control does.
func pop(a *Array, vn, seq int) []float32 {
	return a.AppendPop(nil, vn, 0, uint32(seq))
}

func TestConfigureVNs(t *testing.T) {
	a, _ := newTestArray(t, 8)
	if err := a.ConfigureVNs([]int{3, 3, 3}); err == nil {
		t.Error("VNs past the last switch accepted")
	}
	if err := a.ConfigureVNs([]int{2, -1}); err == nil {
		t.Error("a negative VN size accepted")
	}
	// VNs lie back to back from switch 0; switches past the last belong to
	// none, and an empty VN holds no switch.
	if err := a.ConfigureVNs([]int{1, 2, 0, 3}); err != nil {
		t.Fatal(err)
	}
	for ms, want := range []int32{0, 1, 1, 3, 3, 3, -1, -1} {
		if got := a.vnAt(0, ms); got != want {
			t.Errorf("switch %d is in VN %d, want %d", ms, got, want)
		}
	}
}

func TestMultiplyFlow(t *testing.T) {
	a, c := newTestArray(t, 4)
	if err := a.ConfigureVNs([]int{2}); err != nil {
		t.Fatal(err)
	}
	// Load stationary weights, then stream one input per switch.
	a.Deliver(0, comp.Packet{Value: 2, Kind: comp.WeightPkt})
	a.Deliver(1, comp.Packet{Value: 3, Kind: comp.WeightPkt})
	a.Deliver(0, comp.Packet{Value: 10, Kind: comp.InputPkt, Seq: 0})
	a.Deliver(1, comp.Packet{Value: 10, Kind: comp.InputPkt, Seq: 0})
	a.Arm(0, 0, 0)
	if a.ReadyVN(0, 1) {
		t.Fatal("VN ready before any multiply")
	}
	a.Cycle()
	if !a.ReadyVN(0, 2) {
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
		if !a.Deliver(0, comp.Packet{Value: 1, Kind: comp.InputPkt, Seq: uint32(i)}) {
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
	a.ConfigureVNs([]int{1})
	a.Deliver(0, comp.Packet{Value: 1, Kind: comp.WeightPkt})
	for i := 0; i < 4; i++ {
		a.Deliver(0, comp.Packet{Value: float32(i), Kind: comp.InputPkt, Seq: uint32(i)})
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
	a.ConfigureVNs([]int{1})
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
	a.ConfigureVNs([]int{1})
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
	a.ConfigureVNs([]int{2})
	a.Deliver(0, comp.Packet{Value: 1, Kind: comp.WeightPkt})
	a.Deliver(1, comp.Packet{Value: 1, Kind: comp.WeightPkt})
	// Switch 0 has steps 0 and 1; switch 1 only step 1.
	a.Deliver(0, comp.Packet{Value: 10, Kind: comp.InputPkt, Seq: 0})
	a.Deliver(0, comp.Packet{Value: 20, Kind: comp.InputPkt, Seq: 1})
	a.Deliver(1, comp.Packet{Value: 30, Kind: comp.InputPkt, Seq: 1})
	a.Cycle()
	a.Cycle()
	a.Arm(0, 0, 0)
	if !a.ReadyVN(0, 1) || a.ReadyVN(0, 2) {
		t.Fatal("step 0 should be ready with expect=1 only")
	}
	v := a.AppendPop(nil, 0, 0, 0)
	if len(v) != 1 || v[0] != 10 {
		t.Fatalf("step 0 pop %v", v)
	}
	// The pop exposed switch 0's step-1 product; re-arming counts it with
	// switch 1's.
	a.Arm(0, 0, 1)
	if !a.ReadyVN(0, 2) {
		t.Fatal("step 1 not ready")
	}
	v = a.AppendPop(nil, 0, 0, 1)
	if len(v) != 2 {
		t.Fatalf("step 1 pop %v", v)
	}
}

func TestQuiescentSet(t *testing.T) {
	a, _ := newTestArray(t, 2)
	a.ConfigureVNs([]int{1})
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
			if !a.Deliver(2, comp.Packet{Kind: comp.InputPkt, Seq: uint32(i)}) {
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
		if err := a.ConfigureVNs([]int{2, 1}); err != nil { // VN 1 is switch 2
			t.Fatal(err)
		}
		for seq := 0; seq < 4; seq++ {
			a.Cycle()
			pop(a, 1, seq)
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
		if err := a.ConfigureVNs([]int{1, 1}); err != nil { // VN 1 is switch 1
			t.Fatal(err)
		}
		a.Cycle() // promotes the shadow and multiplies
		pop(a, 1, 0)
		if !a.DeliverAll([]int{0, 1, 2}, w) {
			t.Fatal("weight multicast refused after the shadow was promoted")
		}
		if got := c.Get("mn.weight_loads"); got != 4 {
			t.Errorf("mn.weight_loads = %d, want 4: the setup load and one per destination", got)
		}
	})
}

// TestReadyCountsMatchRescan drives an array through SIGMA-like traffic:
// three double-buffered rounds, each partitioning a random prefix of the
// switches into clusters (so a switch changes VN from round to round),
// every step streaming to a random subset of the switches in use. Deliveries
// keep program order and retry when refused; each cycle multiplies, then
// pops the ready VNs in a random order. Before every pop each armed VN's
// count is checked against a rescan of its members' latch heads.
func TestReadyCountsMatchRescan(t *testing.T) {
	const n = 8
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(m int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(m))
	}
	a, _ := newTestArray(t, n)
	type delivery struct {
		ms int
		p  comp.Packet
	}
	type job struct {
		gen, seq uint32
		expect   int
	}
	var (
		program []delivery
		queues  = make([][]job, n)
		rounds  [][]int   // VN sizes, as ConfigureRounds takes them
		members [][][]int // the same VNs as switch lists, for the rescan
		seq     uint32
	)
	for r := 0; r < 3; r++ {
		gen := uint32(r + 1)
		used := 3 + next(n-2)
		var (
			vns   [][]int
			sizes []int
		)
		for base := 0; base < used; {
			size := min(1+next(3), used-base)
			vn := make([]int, size)
			for i := range vn {
				vn[i] = base + i
			}
			vns = append(vns, vn)
			sizes = append(sizes, size)
			base += size
		}
		rounds, members = append(rounds, sizes), append(members, vns)
		for ms := 0; ms < used; ms++ {
			program = append(program, delivery{ms, comp.Packet{Value: float32(ms + 1), Kind: comp.WeightPkt, Gen: gen}})
		}
		for step := 0; step < 6; step++ {
			for vn, members := range vns {
				expect := 0
				for _, ms := range members {
					if next(3) > 0 {
						program = append(program, delivery{ms, comp.Packet{Value: 1, Kind: comp.InputPkt, Seq: seq, Gen: gen}})
						expect++
					}
				}
				if expect > 0 {
					queues[vn] = append(queues[vn], job{gen, seq, expect})
				}
			}
			seq++
		}
	}
	if err := a.ConfigureRounds(rounds); err != nil {
		t.Fatal(err)
	}
	for vn, q := range queues {
		if len(q) > 0 {
			a.Arm(vn, q[0].gen, q[0].seq)
		}
	}
	pending := 0
	for _, q := range queues {
		pending += len(q)
	}
	for cycle := 0; pending > 0 || len(program) > 0; cycle++ {
		if cycle > 10000 {
			t.Fatalf("stuck with %d deliveries and %d jobs left", len(program), pending)
		}
		for len(program) > 0 && a.Deliver(program[0].ms, program[0].p) {
			program = program[1:]
		}
		a.Cycle()
		for _, vn := range rotate(n, next(n)) {
			q := queues[vn]
			if len(q) == 0 {
				continue
			}
			heads := 0
			for _, ms := range members[q[0].gen-1][vn] {
				if s := &a.ms[ms]; s.nlatch > 0 && s.latch[0].seq == q[0].seq {
					heads++
				}
			}
			if !a.ReadyVN(vn, heads) || a.ReadyVN(vn, heads+1) {
				t.Fatalf("cycle %d VN %d step %d: ready count disagrees with the %d heads a rescan finds", cycle, vn, q[0].seq, heads)
			}
			if heads < q[0].expect {
				continue
			}
			if got := a.AppendPop(nil, vn, q[0].gen, q[0].seq); len(got) != q[0].expect {
				t.Fatalf("VN %d step %d popped %d products, want %d", vn, q[0].seq, len(got), q[0].expect)
			}
			queues[vn] = q[1:]
			pending--
			if len(q) > 1 {
				a.Arm(vn, q[1].gen, q[1].seq)
			}
		}
	}
	if !a.Idle() {
		t.Error("array not idle after every job popped")
	}
}

// rotate lists 0..n-1 starting at k.
func rotate(n, k int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (k + i) % n
	}
	return out
}
