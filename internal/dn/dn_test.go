package dn

import (
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/comp"
	"repro/internal/comp/names"
)

// collector is a Sink that records deliveries and can simulate fullness:
// a delivery naming a rejecting switch lands nowhere.
type collector struct {
	got     map[int][]comp.Packet
	rejects map[int]bool
}

func newCollector() *collector {
	return &collector{got: map[int][]comp.Packet{}, rejects: map[int]bool{}}
}

func (c *collector) DeliverAll(dests []int, p comp.Packet) bool {
	for _, ms := range dests {
		if c.rejects[ms] {
			return false
		}
	}
	for _, ms := range dests {
		c.got[ms] = append(c.got[ms], p)
	}
	return true
}

// offer offers one delivery and reports whether the queue took it.
func offer(n Network, d Delivery) bool { return n.OfferAll([]Delivery{d}) == 1 }

func (c *collector) count() int {
	n := 0
	for _, ps := range c.got {
		n += len(ps)
	}
	return n
}

func TestTreeMulticastSingleCycle(t *testing.T) {
	ctr := comp.NewCounters()
	tree := NewTree(16, 4, ctr)
	col := newCollector()
	tree.SetSink(col)
	// One multicast to 8 destinations = one bandwidth slot.
	offer(tree, Delivery{Pkt: comp.Packet{Value: 1}, Dests: []int{0, 1, 2, 3, 4, 5, 6, 7}})
	tree.Cycle()
	if col.count() != 8 {
		t.Fatalf("multicast delivered %d, want 8", col.count())
	}
	if ctr.Get("dn.injections") != 1 {
		t.Errorf("injections = %d, want 1 (multicast is one traversal)", ctr.Get("dn.injections"))
	}
}

func TestTreeBandwidthLimit(t *testing.T) {
	ctr := comp.NewCounters()
	tree := NewTree(16, 2, ctr)
	col := newCollector()
	tree.SetSink(col)
	for i := 0; i < 5; i++ {
		offer(tree, Delivery{Pkt: comp.Packet{Seq: uint32(i)}, Dests: []int{i}})
	}
	tree.Cycle()
	if col.count() != 2 {
		t.Fatalf("bw=2 delivered %d in one cycle", col.count())
	}
	tree.Cycle()
	tree.Cycle()
	if col.count() != 5 || tree.Pending() != 0 {
		t.Errorf("after 3 cycles delivered %d, pending %d", col.count(), tree.Pending())
	}
}

func TestTreeBackpressureIsAtomic(t *testing.T) {
	ctr := comp.NewCounters()
	tree := NewTree(8, 4, ctr)
	col := newCollector()
	col.rejects[3] = true
	tree.SetSink(col)
	offer(tree, Delivery{Pkt: comp.Packet{Value: 9}, Dests: []int{1, 3, 5}})
	tree.Cycle()
	// Nothing may be delivered: destination 3 is full and multicast is
	// all-or-nothing (a partial retry would duplicate packets).
	if col.count() != 0 {
		t.Fatalf("partial multicast delivered %d packets", col.count())
	}
	col.rejects[3] = false
	tree.Cycle()
	if col.count() != 3 {
		t.Errorf("retry delivered %d", col.count())
	}
	if len(col.got[1]) != 1 {
		t.Errorf("destination 1 got %d copies, want exactly 1", len(col.got[1]))
	}
}

func TestSteinerEdges(t *testing.T) {
	st := NewSteiner(16)
	// Full broadcast over N leaves covers all 2N-2 edges.
	all := make([]int, 16)
	for i := range all {
		all[i] = i
	}
	if got := st.Edges(all); got != 30 {
		t.Errorf("broadcast edges = %d, want 30", got)
	}
	// A single leaf is one root-to-leaf path: log2(N) edges.
	if got := st.Edges([]int{5}); got != 4 {
		t.Errorf("unicast edges = %d, want 4", got)
	}
	if got := st.Edges(nil); got != 0 {
		t.Errorf("empty multicast edges = %d", got)
	}
	// Two sibling leaves share all edges except the last level.
	if got := st.Edges([]int{0, 1}); got != 5 {
		t.Errorf("sibling pair edges = %d, want 5", got)
	}
	// Repeat with the same generation machinery: results stay stable.
	if got := st.Edges(all); got != 30 {
		t.Errorf("stamped recount = %d, want 30", got)
	}
}

func TestBenesPerDestinationBandwidth(t *testing.T) {
	ctr := comp.NewCounters()
	bn := NewBenes(16, 4, ctr)
	col := newCollector()
	bn.SetSink(col)
	// One delivery with 6 destinations needs 2 cycles at bw=4: the gather
	// reads one operand per participating switch.
	offer(bn, Delivery{Pkt: comp.Packet{Value: 2}, Dests: []int{0, 1, 2, 3, 4, 5}})
	bn.Cycle()
	if col.count() != 4 {
		t.Fatalf("cycle 1 delivered %d, want 4", col.count())
	}
	bn.Cycle()
	if col.count() != 6 || bn.Pending() != 0 {
		t.Errorf("cycle 2 delivered %d, pending %d", col.count(), bn.Pending())
	}
}

func TestPointToPointUnicastCost(t *testing.T) {
	ctr := comp.NewCounters()
	pp := NewPointToPoint(16, 3, ctr)
	col := newCollector()
	pp.SetSink(col)
	offer(pp, Delivery{Pkt: comp.Packet{}, Dests: []int{0, 1, 2, 3, 4}})
	pp.Cycle()
	if col.count() != 3 {
		t.Fatalf("bw=3 delivered %d", col.count())
	}
	pp.Cycle()
	if col.count() != 5 {
		t.Errorf("total %d", col.count())
	}
}

func TestNewByName(t *testing.T) {
	ctr := comp.NewCounters()
	for _, kind := range []string{"TN", "BN", "PoPN"} {
		n, err := New(kind, 8, 4, ctr)
		if err != nil || n == nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
	if _, err := New("bogus", 8, 4, ctr); err == nil {
		t.Error("unknown network accepted")
	}
}

func TestOfferQueueCap(t *testing.T) {
	ctr := comp.NewCounters()
	tree := NewTree(8, 1, ctr)
	accepted := 0
	for i := 0; i < queueCap+10; i++ {
		if offer(tree, Delivery{Pkt: comp.Packet{}, Dests: []int{0}}) {
			accepted++
		}
	}
	if accepted != queueCap {
		t.Errorf("accepted %d, want %d", accepted, queueCap)
	}
	// A bulk offer takes the prefix that fits: one slot frees per cycle.
	tree.SetSink(newCollector())
	tree.Cycle()
	tree.Cycle()
	if got := tree.OfferAll(make([]Delivery, 5)); got != 2 {
		t.Errorf("bulk offer into 2 free slots took %d", got)
	}
	if got := tree.OfferAll(nil); got != 0 {
		t.Errorf("empty bulk offer took %d", got)
	}
}

// Property: every offered packet is delivered exactly once, in order per
// destination, regardless of the network kind.
func TestExactlyOnceDeliveryProperty(t *testing.T) {
	f := func(seed int64, kindPick uint8) bool {
		ctr := comp.NewCounters()
		kinds := []string{"TN", "BN", "PoPN"}
		n, _ := New(kinds[int(kindPick)%3], 8, 2, ctr)
		col := newCollector()
		n.SetSink(col)
		s := uint64(seed)*2654435761 + 7
		next := func(m int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return int(s % uint64(m))
		}
		total := 0
		for i := 0; i < 20; i++ {
			nd := 1 + next(4)
			dests := map[int]struct{}{}
			for len(dests) < nd {
				dests[next(8)] = struct{}{}
			}
			var dl []int
			for d := range dests {
				dl = append(dl, d)
			}
			sort.Ints(dl) // fixed dest order: keeps the property run deterministic per seed
			offer(n, Delivery{Pkt: comp.Packet{Seq: uint32(i)}, Dests: dl})
			total += nd
		}
		for c := 0; c < 200 && n.Pending() > 0; c++ {
			n.Cycle()
		}
		if col.count() != total {
			return false
		}
		for _, ps := range col.got {
			last := -1
			for _, p := range ps {
				if int(p.Seq) <= last {
					return false // out of order or duplicate
				}
				last = int(p.Seq)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestTreeChargesDeliveryEdges: the tree charges each injected value the
// Steiner edge count its schedule recorded on the delivery, and a value
// riding the forwarding links none. A delivery is a 16-byte packet, the
// destination table's slice header, the count and the forward flag: 48
// bytes.
func TestTreeChargesDeliveryEdges(t *testing.T) {
	ctr := comp.NewCounters()
	tree := NewTree(16, 4, ctr)
	tree.SetSink(newCollector())
	half := []int{0, 1, 2, 3, 4, 5, 6, 7}
	edges := NewSteiner(16).Edges(half)
	if edges != 15 { // 8 leaf edges, then 4, 2 and 1 above them
		t.Fatalf("Steiner edges of half the leaves = %d, want 15", edges)
	}
	offer(tree, Delivery{Dests: half, Edges: edges})
	offer(tree, Delivery{Dests: []int{9}, Forward: true, Edges: 4})
	tree.Cycle()
	if got := ctr.Get(names.DNLinkTraversals); got != 15 {
		t.Errorf("%s = %d, want 15", names.DNLinkTraversals, got)
	}
	if got := ctr.Get(names.MNForwards); got != 1 {
		t.Errorf("%s = %d, want 1", names.MNForwards, got)
	}
	if size := unsafe.Sizeof(comp.Packet{}); size != 16 {
		t.Errorf("Packet is %d bytes, want 16", size)
	}
	if size := unsafe.Sizeof(Delivery{}); size != 48 {
		t.Errorf("Delivery is %d bytes, want 48", size)
	}
}

// TestQueueRingGrowsInOrder: the injection queue is a ring that doubles
// when full; bulk offers that wrap, fill and grow it must keep the
// deliveries in offer order.
func TestQueueRingGrowsInOrder(t *testing.T) {
	tree := NewTree(8, 1, comp.NewCounters())
	col := newCollector()
	tree.SetSink(col)
	var seq uint32
	offerN := func(n int) {
		ds := make([]Delivery, n)
		for i := range ds {
			ds[i] = Delivery{Pkt: comp.Packet{Seq: seq + uint32(i)}, Dests: []int{0}}
		}
		if got := tree.OfferAll(ds); got != n {
			t.Fatalf("offered %d from seq %d, %d taken below the cap", n, seq, got)
		}
		seq += uint32(n)
	}
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			tree.Cycle()
		}
	}
	offerN(12)
	cycle(7)  // head mid-ring
	offerN(9) // wraps, then fills the 16-slot ring and grows
	cycle(5)
	offerN(40) // wraps again and grows to 64
	for i := 0; i < 6; i++ {
		cycle(3)
		offerN(1)
	}
	cycle(int(seq))
	if tree.Pending() != 0 || len(col.got[0]) != int(seq) {
		t.Fatalf("delivered %d of %d, %d pending", len(col.got[0]), seq, tree.Pending())
	}
	for i, p := range col.got[0] {
		if p.Seq != uint32(i) {
			t.Fatalf("delivery %d carries seq %d: the ring reordered", i, p.Seq)
		}
	}
}
