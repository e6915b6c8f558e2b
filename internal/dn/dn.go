// Package dn implements the three distribution networks of Section IV-A.1:
// the MAERI-style Tree Network, the SIGMA-style Benes Network, and the
// unicast Point-to-Point network used by systolic designs. A distribution
// network moves values from the Global Buffer read ports to multiplier
// switches under a per-cycle bandwidth budget, and accounts the link/switch
// activity the energy model consumes.
//
// The dn.active_cycles and dn.stall_cycles counters double as the trace
// layer's classification probes (internal/trace): their per-cycle deltas
// decide whether the DN tier was busy or bandwidth-stalled, so they must
// keep firing on exactly the cycles the network moves or blocks packets.
package dn

import (
	"fmt"
	"math/bits"

	"repro/internal/comp"
	"repro/internal/comp/names"
)

// Delivery is one unique value read from the Global Buffer this cycle,
// fanned out to a set of multiplier-switch destinations. Multicast is a
// single delivery with many destinations; the network decides what that
// costs in bandwidth and link energy. It is 48 bytes: the injection queue
// and the sources' item buffers hold it by value.
type Delivery struct {
	Pkt comp.Packet
	// Dests is a read-only destination table of the operation being run,
	// never empty: the schedule builds each distinct set once, many
	// deliveries (queued ones included) may share one, and it outlives them
	// all — so no network writes through it, and copying a Delivery copies
	// only the reference.
	Dests []int
	// Forward marks a value that travels over the multiplier network's
	// forwarding links instead of the distribution tree (Linear MN
	// sliding-window reuse): it keeps its place in the delivery order but
	// consumes no GB read bandwidth.
	Forward bool
	// Edges is the Steiner edge count of Dests on a tree network (see
	// Steiner): the links one multicast of the value toggles. The schedule
	// counts it once per destination table, when it builds the table, and
	// the tree charges it per delivered value; other networks ignore it.
	Edges int32
}

// Sink is the destination array of a network (normally the multiplier
// network).
type Sink interface {
	// DeliverAll hands p to every switch of dests, or to none: false means
	// some destination cannot accept it now (operand FIFO full, shadow
	// register still pending), which back-pressures the network. A multicast
	// must land atomically — a partial delivery retried next cycle would
	// duplicate the packet where it already landed.
	DeliverAll(dests []int, p comp.Packet) bool
}

// Network is the common behaviour of all three DN types.
type Network interface {
	// Cycle moves up to the per-cycle budget of queued deliveries.
	Cycle()
	comp.Lookahead
	// OfferAll copies the longest prefix of ds that fits into the injection
	// queue and returns its length; the caller offers the rest again next
	// cycle.
	OfferAll(ds []Delivery) int
	// Pending reports queued plus in-flight deliveries.
	Pending() int
	// SetSink wires the destination array.
	SetSink(s Sink)
}

// queueCap bounds the injection queue: the controller may run at most this
// many deliveries ahead of the network.
const queueCap = 1024

type base struct {
	bandwidth int
	sink      Sink
	// queue is the injection queue, a ring holding n deliveries from head.
	// It doubles when full, up to queueCap, and is never copied down.
	queue   []Delivery
	head, n int

	// Pre-resolved counter handles shared by all DN kinds. Each Cycle sums
	// its events locally and adds them once, at the end of the call: the
	// trace recorder reads counters only between cycles, so it sees the
	// same per-cycle deltas as from one Add per event.
	cStalls, cInjections, cActive comp.Counter
}

func newBase(bandwidth int, c *comp.Counters) base {
	return base{
		bandwidth:   bandwidth,
		cStalls:     c.Counter(names.DNStallCycles),
		cInjections: c.Counter(names.DNInjections),
		cActive:     c.Counter(names.DNActiveCycles),
	}
}

func (b *base) OfferAll(ds []Delivery) int {
	offered := 0
	for offered < len(ds) {
		if b.n == len(b.queue) {
			if b.n >= queueCap {
				break
			}
			b.grow()
		}
		// Copy into the free run that starts at the tail: up to the end of
		// the ring, or up to the head once the tail has wrapped.
		tail := b.head + b.n
		end := len(b.queue)
		if tail >= end {
			tail -= end
			end = b.head
		}
		k := copy(b.queue[tail:end], ds[offered:])
		b.n += k
		offered += k
	}
	return offered
}
func (b *base) Pending() int   { return b.n }
func (b *base) SetSink(s Sink) { b.sink = s }

// grow doubles the full ring (16 slots at first, queueCap at most),
// unrolling it to start at slot 0.
func (b *base) grow() {
	//lint:ignore hotpathalloc the ring doubles only when full and stops at queueCap, so a run allocates it at most seven times
	q := make([]Delivery, min(max(2*len(b.queue), 16), queueCap))
	copy(q[copy(q, b.queue[b.head:]):], b.queue[:b.head])
	b.queue, b.head = q, 0
}

// Lookahead implements comp.Lookahead for every DN kind: with an empty
// injection queue a distribution network's Cycle is a pure no-op (no
// deliveries, no counters), so an idle network never bounds a fast-forward
// skip; with queued work it must tick.
func (b *base) Lookahead() uint64 {
	if b.n == 0 {
		return comp.Unbounded
	}
	return 0
}

// Advance implements comp.Lookahead: an idle network has no per-cycle
// state, so skipped cycles replay as nothing at all.
func (b *base) Advance(uint64) {}

// qpop removes the head delivery. The consumed slot is left as it is: its
// Dests is a table of the operation, which the slot neither owns nor can
// outlive.
func (b *base) qpop() {
	b.head++
	if b.head == len(b.queue) {
		b.head = 0
	}
	b.n--
}

// Tree is the MAERI binary distribution tree. One traversal serves an
// arbitrary multicast group in a single cycle; the bandwidth budget counts
// unique values (GB read ports feeding the tree roots).
type Tree struct {
	base
	cLinkTrav comp.Counter
	cForwards comp.Counter
}

// NewTree builds a tree DN over `leaves` multiplier switches with the given
// per-cycle unique-value bandwidth. The tree's shape enters only through the
// Steiner edge counts its deliveries carry (Delivery.Edges).
func NewTree(leaves, bandwidth int, c *comp.Counters) *Tree {
	return &Tree{
		base:      newBase(bandwidth, c),
		cLinkTrav: c.Counter(names.DNLinkTraversals),
		cForwards: c.Counter(names.MNForwards),
	}
}

// Cycle pops up to bandwidth deliveries and multicasts each down the tree.
// Forwarded values ride the MN links instead of the tree — they save the
// GB read and the tree wire energy — but their injection is serialized
// through the same switch-configuration path, so they spend an injection
// slot like any other value. (Calibrated against the MAERI BSV cycle
// counts of Table V, which show no cycle-level benefit from
// sliding-window forwarding at the validation tile.)
func (t *Tree) Cycle() {
	var n, injections, links, forwards uint64
	stalled := false
	for n < uint64(t.bandwidth) && t.n > 0 {
		d := &t.queue[t.head]
		if !t.sink.DeliverAll(d.Dests, d.Pkt) {
			stalled = true
			break // head-of-line blocking until the MN drains
		}
		n++
		if d.Forward {
			forwards += uint64(len(d.Dests))
		} else {
			injections++
			links += uint64(d.Edges)
		}
		t.qpop()
	}
	// Dests is never empty, so a forwarded delivery always adds to forwards.
	if injections > 0 {
		t.cInjections.Add(injections)
		t.cLinkTrav.Add(links)
	}
	if forwards > 0 {
		t.cForwards.Add(forwards)
	}
	if stalled {
		t.cStalls.Add(1)
	}
	if n > 0 {
		t.cActive.Add(1)
	}
}

// Steiner counts the links of a tree network that a multicast toggles: the
// distinct edges of the complete binary tree over leaves switches covered by
// the union of the root-to-leaf paths of the destination set. A schedule
// keeps one while it builds its destination tables and records each table's
// count on the deliveries that use it (Delivery.Edges).
type Steiner struct {
	leaves int
	// stamp marks the nodes visited by the current count, tagged with a
	// per-count generation so no count clears it.
	stamp []uint32
	gen   uint32
}

// NewSteiner returns a counter for a tree over leaves switches.
func NewSteiner(leaves int) *Steiner {
	return &Steiner{leaves: leaves, stamp: make([]uint32, 2*leaves)}
}

// Edges returns the Steiner edge count of dests.
func (s *Steiner) Edges(dests []int) int32 {
	s.gen++
	if s.gen == 0 { // wrapped: reset all stamps once
		clear(s.stamp)
		s.gen = 1
	}
	var edges int32
	for _, d := range dests {
		node := s.leaves + d // heap numbering: leaves occupy [leaves, 2*leaves)
		for node > 1 && s.stamp[node] != s.gen {
			s.stamp[node] = s.gen
			edges++ // each newly covered node contributes its parent edge
			node /= 2
		}
	}
	return edges
}

// Benes is the SIGMA N-input N-output non-blocking network with
// 2·log2(N)+1 switch levels. The streaming gather reads one operand per
// participating multiplier switch from the Global Buffer — a value needed
// by several clusters is fetched once per destination, so the bandwidth
// budget counts destinations, not unique values (this is the arithmetic of
// the paper's Fig. 8 example, and the reason cluster sizes and therefore
// filter scheduling affect performance). The network itself is
// non-blocking, so any set of disjoint paths proceeds in one cycle.
type Benes struct {
	base
	cSwitchTrav comp.Counter
	levels      int
	partial     int // destinations of the head delivery already served
}

// NewBenes builds a Benes DN over `leaves` destinations.
func NewBenes(leaves, bandwidth int, c *comp.Counters) *Benes {
	return &Benes{
		base:        newBase(bandwidth, c),
		cSwitchTrav: c.Counter(names.DNSwitchTraversals),
		levels:      2*log2ceil(leaves) + 1,
	}
}

// Cycle serves up to bandwidth destination deliveries, splitting a wide
// fan-out across cycles.
func (b *Benes) Cycle() {
	var n, hops uint64
	stalled := false
deliver:
	for n < uint64(b.bandwidth) && b.n > 0 {
		d := &b.queue[b.head]
		for b.partial < len(d.Dests) && n < uint64(b.bandwidth) {
			if !b.sink.DeliverAll(d.Dests[b.partial:b.partial+1], d.Pkt) {
				stalled = true
				break deliver
			}
			// Replication happens inside the network: the first copy of a
			// value traverses all levels; further copies of the same
			// delivery branch off mid-network and only pay the output
			// half. Mapping more clusters simultaneously widens fan-outs
			// and saves these hops — the DN energy gain the scheduling
			// study reports.
			if b.partial > 0 {
				hops += uint64((b.levels + 1) / 2)
			} else {
				hops += uint64(b.levels)
			}
			b.partial++
			n++
		}
		if b.partial == len(d.Dests) {
			b.qpop()
			b.partial = 0
		}
	}
	if n > 0 {
		b.cInjections.Add(n)
		b.cSwitchTrav.Add(hops)
	}
	if stalled {
		b.cStalls.Add(1)
	}
	if n > 0 {
		b.cActive.Add(1)
	}
}

// PointToPoint provides unicast-only delivery: a multicast to k
// destinations costs k bandwidth slots, the defining inefficiency of rigid
// interconnects.
type PointToPoint struct {
	base
	cLinkTrav comp.Counter
	partial   int // how many dests of the head delivery already went out
}

// NewPointToPoint builds the unicast DN.
func NewPointToPoint(leaves, bandwidth int, c *comp.Counters) *PointToPoint {
	return &PointToPoint{
		base:      newBase(bandwidth, c),
		cLinkTrav: c.Counter(names.DNLinkTraversals),
	}
}

// Cycle sends up to bandwidth unicasts, splitting multicast deliveries into
// one unicast per destination.
func (p *PointToPoint) Cycle() {
	var n uint64
	stalled := false
deliver:
	for n < uint64(p.bandwidth) && p.n > 0 {
		d := &p.queue[p.head]
		for p.partial < len(d.Dests) && n < uint64(p.bandwidth) {
			if !p.sink.DeliverAll(d.Dests[p.partial:p.partial+1], d.Pkt) {
				stalled = true
				break deliver
			}
			p.partial++
			n++
		}
		if p.partial == len(d.Dests) {
			p.qpop()
			p.partial = 0
		}
	}
	if n > 0 {
		p.cInjections.Add(n)
		p.cLinkTrav.Add(n)
	}
	if stalled {
		p.cStalls.Add(1)
	}
	if n > 0 {
		p.cActive.Add(1)
	}
}

// New constructs the DN named by the configuration.
func New(kind string, leaves, bandwidth int, c *comp.Counters) (Network, error) {
	switch kind {
	case "TN":
		return NewTree(leaves, bandwidth, c), nil
	case "BN":
		return NewBenes(leaves, bandwidth, c), nil
	case "PoPN":
		return NewPointToPoint(leaves, bandwidth, c), nil
	default:
		return nil, fmt.Errorf("dn: unknown distribution network %q", kind)
	}
}

func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
