// Package mn implements the multiplier network of Section IV-A.2: the array
// of Multiplier Switches (MSs) holding a stationary operand and multiplying
// it with streamed operands. The Linear MN's forwarding links between
// neighbouring switches live in the schedule, not here: the convolution
// source marks a forwarded value (dn.Delivery.Forward) and the distribution
// network counts it as mn.forwards, so every operand reaches a switch
// through Deliver.
//
// The mn.active_cycles counter doubles as the trace layer's busy probe for
// the MN tier (internal/trace): it must fire exactly on cycles where at
// least one multiplier produced work.
package mn

import (
	"fmt"
	"math/bits"

	"repro/internal/comp"
	"repro/internal/comp/names"
)

// psumLatchDepth bounds how many reduce steps a switch can run ahead of
// the reduction network before stalling.
const psumLatchDepth = 2

type msState struct {
	stationary float32
	hasStat    bool
	curGen     uint32
	// shadow is the double-buffered stationary register (SIGMA rounds):
	// loaded ahead of time, promoted when the first input of its
	// generation arrives.
	shadow    float32
	shadowGen uint32
	hasShadow bool

	in     comp.FIFO            // operand ring, cut from the array's one allocation
	latch  [psumLatchDepth]psum // latched products awaiting reduction, in step order
	nlatch int                  // occupied prefix of latch
}

type psum struct {
	value float32
	seq   int
	last  bool
}

// Array is the multiplier-switch array. The engine assigns each switch to a
// virtual neuron (VN) and tells the array, per VN and step, how many member
// products to expect; ReadyVN reports VNs whose current step is complete.
type Array struct {
	n  int
	ms []msState
	// busy is the set of switches holding work (a queued operand or a
	// latched psum), one bit per switch, and nbusy its size: Cycle visits
	// only these, in ascending order, and Idle is nbusy == 0.
	busy  []uint64
	nbusy int

	// Pre-resolved counter handles (per-cycle hot path).
	cMults, cActive, cWeightLoads, cReconf comp.Counter
	cFifoPushes, cFifoPops                 comp.Counter

	vnMembers [][]int // vn -> member switch indices
	vnOf      []int   // switch -> vn (-1 when unassigned)
}

// NewArray builds an MS array of n switches; fifoDepth bounds each operand
// FIFO.
func NewArray(n, fifoDepth int, c *comp.Counters) *Array {
	a := &Array{
		n:            n,
		ms:           make([]msState, n),
		busy:         make([]uint64, (n+63)/64),
		cMults:       c.Counter(names.MNMults),
		cActive:      c.Counter(names.MNActiveCycles),
		cWeightLoads: c.Counter(names.MNWeightLoads),
		cReconf:      c.Counter(names.MNReconfigurations),
		cFifoPushes:  c.Counter(names.MNFifoPushes),
		cFifoPops:    c.Counter(names.MNFifoPops),
		vnOf:         make([]int, n),
	}
	ring := make([]comp.Packet, n*fifoDepth)
	for i := range a.ms {
		a.ms[i].in = comp.NewFIFO(ring[i*fifoDepth : (i+1)*fifoDepth : (i+1)*fifoDepth])
		a.vnOf[i] = -1
	}
	return a
}

// ConfigureVNs assigns switches to virtual neurons. Each inner slice lists
// the member switch indices of one VN. Reconfiguration happens between
// tiles, mirroring the signals the paper's Configuration Unit drives.
func (a *Array) ConfigureVNs(vns [][]int) error {
	for i := range a.vnOf {
		a.vnOf[i] = -1
	}
	for vn, members := range vns {
		for _, ms := range members {
			if ms < 0 || ms >= a.n {
				return fmt.Errorf("mn: VN %d member %d out of range [0,%d)", vn, ms, a.n)
			}
			if a.vnOf[ms] != -1 {
				return fmt.Errorf("mn: switch %d assigned to both VN %d and VN %d", ms, a.vnOf[ms], vn)
			}
			a.vnOf[ms] = vn
		}
	}
	a.vnMembers = vns
	a.cReconf.Add(1)
	return nil
}

// VNs returns the current VN membership table.
func (a *Array) VNs() [][]int { return a.vnMembers }

// CanDeliver reports whether Deliver would accept the packet right now,
// without side effects.
func (a *Array) CanDeliver(ms int, p comp.Packet) bool {
	s := &a.ms[ms]
	switch p.Kind {
	case comp.WeightPkt:
		if p.Gen != 0 {
			return !s.hasShadow || s.in.Empty()
		}
		return true
	default:
		return !s.in.Full()
	}
}

// Deliver hands one switch a packet: weights land in the stationary
// register, inputs in the operand FIFO. It returns false, and changes
// nothing, exactly when CanDeliver is false.
func (a *Array) Deliver(ms int, p comp.Packet) bool {
	s := &a.ms[ms]
	switch p.Kind {
	case comp.WeightPkt:
		if p.Gen != 0 {
			// A still-unpromoted shadow may only be overwritten when the
			// operand FIFO is empty: deliveries arrive in program order,
			// so an empty FIFO proves no input of the shadow's generation
			// is still coming (streaming sparsity can skip a switch for a
			// whole round). Otherwise back-pressure the network.
			if s.hasShadow && !s.in.Empty() {
				return false
			}
			s.shadow = p.Value
			s.shadowGen = p.Gen
			s.hasShadow = true
		} else {
			s.stationary = p.Value
			s.hasStat = true
			s.curGen = 0
		}
		a.cWeightLoads.Add(1)
		return true
	default:
		if !s.in.Push(p) {
			return false
		}
		if w, bit := &a.busy[ms>>6], uint64(1)<<(ms&63); *w&bit == 0 {
			*w |= bit
			a.nbusy++
		}
		return true
	}
}

// DeliverAll is the dn.Sink: it delivers p to every switch of dests or, when
// any of them cannot accept it now, to none. Destination sets hold each
// switch once, so after every probe passes no Deliver is refused.
func (a *Array) DeliverAll(dests []int, p comp.Packet) bool {
	if len(dests) > 1 {
		for _, ms := range dests {
			if !a.CanDeliver(ms, p) {
				return false
			}
		}
	}
	for _, ms := range dests {
		if !a.Deliver(ms, p) {
			return false
		}
	}
	return true
}

// Cycle fires every switch that has a stationary operand, a queued input
// and latch space: one multiply per switch per cycle. An input of a newer
// generation first promotes the matching shadow register; if that shadow
// has not arrived yet, the switch stalls.
func (a *Array) Cycle() {
	fired := 0
	for wi, w := range a.busy {
		for ; w != 0; w &= w - 1 {
			if a.fire(wi<<6 | bits.TrailingZeros64(w)) {
				fired++
			}
		}
	}
	if fired > 0 {
		a.cMults.Add(uint64(fired))
		a.cActive.Add(1)
	}
}

// fire runs switch i's multiplier for one cycle and reports whether it
// produced a product.
func (a *Array) fire(i int) bool {
	s := &a.ms[i]
	if s.nlatch >= psumLatchDepth {
		return false
	}
	p, ok := s.in.Peek()
	if !ok {
		return false
	}
	if p.Gen != s.curGen {
		if !s.hasShadow || s.shadowGen != p.Gen {
			return false // waiting for this generation's stationary value
		}
		s.stationary = s.shadow
		s.hasStat = true
		s.curGen = p.Gen
		s.hasShadow = false
	}
	if !s.hasStat {
		return false
	}
	s.in.Pop()
	s.latch[s.nlatch] = psum{value: s.stationary * p.Value, seq: p.Seq, last: p.Last}
	s.nlatch++
	return true
}

// Lookahead implements comp.Lookahead: an idle array (no queued operands,
// no latched psums) fires nothing and touches no counter, so its Cycle is a
// pure no-op for any horizon; any in-flight work means it must tick.
func (a *Array) Lookahead() uint64 {
	if a.Idle() {
		return comp.Unbounded
	}
	return 0
}

// Advance implements comp.Lookahead: an idle array has no per-cycle state.
func (a *Array) Advance(uint64) {}

// ReadyVN reports whether VN vn has a complete product set for step seq:
// at least `expect` member switches hold a head psum tagged seq.
func (a *Array) ReadyVN(vn, seq, expect int) bool {
	if vn >= len(a.vnMembers) {
		return false
	}
	return a.ReadyMembers(a.vnMembers[vn], seq, expect)
}

// ReadyMembers is ReadyVN over an explicit member set — used by
// controllers whose cluster shapes change every round and are snapshot
// into the job itself.
func (a *Array) ReadyMembers(members []int, seq, expect int) bool {
	count := 0
	for _, ms := range members {
		s := &a.ms[ms]
		if s.nlatch > 0 && s.latch[0].seq == seq {
			count++
		}
	}
	return count >= expect
}

// AppendPop removes the head psums of the member set tagged with step seq,
// appends them to dst and returns the extended slice; last reports whether
// any contributing product was marked final. The cycle loop passes a
// reusable scratch buffer, so the pop does not allocate.
func (a *Array) AppendPop(dst []float32, members []int, seq int) (values []float32, last bool) {
	values = dst
	for _, ms := range members {
		s := &a.ms[ms]
		if s.nlatch > 0 && s.latch[0].seq == seq {
			//lint:ignore hotpathalloc dst is the caller's reusable scratch buffer (reset to len 0 each cycle), so this append reallocates only until it reaches steady-state capacity
			values = append(values, s.latch[0].value)
			last = last || s.latch[0].last
			s.nlatch = copy(s.latch[:], s.latch[1:s.nlatch])
			if s.nlatch == 0 && s.in.Empty() {
				a.busy[ms>>6] &^= 1 << (ms & 63)
				a.nbusy--
			}
		}
	}
	return values, last
}

// QuiescentSet reports whether every switch in the set has drained its
// operand FIFO and psum latches — the safe condition for reloading its
// stationary register.
func (a *Array) QuiescentSet(set []int) bool {
	for _, ms := range set {
		if a.busy[ms>>6]&(1<<(ms&63)) != 0 {
			return false
		}
	}
	return true
}

// Idle reports whether no switch holds queued inputs or latched psums.
func (a *Array) Idle() bool { return a.nbusy == 0 }

// CollectFIFOStats folds per-switch FIFO activity into the counters.
func (a *Array) CollectFIFOStats() {
	for i := range a.ms {
		pushes, pops := a.ms[i].in.Stats()
		a.cFifoPushes.Add(pushes)
		a.cFifoPops.Add(pops)
	}
}
