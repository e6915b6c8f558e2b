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
	// vn is the VN the live stationary belongs to in its generation (-1:
	// none); every product the switch latches is tagged with it.
	vn int32
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
	seq   uint32
	vn    int32 // the VN this product reduces into (-1: none)
}

// noWant is the want entry of a VN with no step armed: no uint32 step
// number equals it.
const noWant = ^uint64(0)

// Array is the multiplier-switch array. The engine assigns each switch to a
// virtual neuron (VN) per stationary generation and arms each VN with the
// step its next reduction consumes; ReadyVN reports whether enough members
// hold that step's product.
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

	// gens[g] is the VN programming of stationary generation g: 0 is
	// ConfigureVNs', 1.. are ConfigureRounds'.
	gens []vnRuns

	// want[vn] is the step VN vn is armed with (noWant: none) and ready[vn]
	// how many of its members hold a product of that step at the head of
	// their latch. A product entering the head of a latch (fired into an
	// empty one, or exposed by a pop) bumps its VN's count when the steps
	// match, so no member set is rescanned while a VN waits.
	want  []uint64
	ready []int32
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
		gens:         make([]vnRuns, 1),
	}
	ring := make([]comp.Packet, n*fifoDepth)
	for i := range a.ms {
		a.ms[i].in = comp.NewFIFO(ring[i*fifoDepth : (i+1)*fifoDepth : (i+1)*fifoDepth])
		a.ms[i].vn = -1
	}
	return a
}

// vnRuns is the VN programming of one stationary generation. A virtual
// neuron is a run of consecutive switches — a range of the reduction
// network's leaves, as MAERI's VNs and SIGMA's clusters both are — laid
// from switch 0 in VN order, so VN v is the switches [g[v], g[v+1]).
type vnRuns []int32

// ConfigureVNs assigns switches to the virtual neurons of generation 0,
// the barrier-synchronized stationaries: VN v is the sizes[v] switches
// after VN v-1's. Reconfiguration happens between tiles, mirroring the
// signals the paper's Configuration Unit drives.
func (a *Array) ConfigureVNs(sizes []int) error {
	g := make(vnRuns, len(sizes)+1)
	if err := a.fillRuns(sizes, g); err != nil {
		return err
	}
	a.gens[0] = g
	a.sizeVNs(len(sizes))
	for i := range a.ms {
		if s := &a.ms[i]; s.curGen == 0 {
			s.vn = a.vnAt(0, i)
		}
	}
	a.cReconf.Add(1)
	return nil
}

// ConfigureRounds programs the VNs of the double-buffered stationary
// generations: rounds[g-1] is generation g's VN sizes, laid out as in
// ConfigureVNs. The sparse controller knows every round's clusters before
// the first cycle, so it programs them all at once; a switch takes its
// generation's VN when that generation's stationary is promoted.
func (a *Array) ConfigureRounds(rounds [][]int) error {
	total := 0
	for _, sizes := range rounds {
		total += len(sizes) + 1
	}
	offs := make([]int32, total) // every round's runs, back to back
	gens := append(make([]vnRuns, 0, 1+len(rounds)), a.gens[0])
	for r, sizes := range rounds {
		n := len(sizes) + 1
		g := vnRuns(offs[:n:n])
		offs = offs[n:]
		if err := a.fillRuns(sizes, g); err != nil {
			return fmt.Errorf("mn: round %d: %w", r, err)
		}
		gens = append(gens, g)
		a.sizeVNs(len(sizes))
	}
	a.gens = gens
	return nil
}

// fillRuns lays VNs of the given sizes out from switch 0 into g.
func (a *Array) fillRuns(sizes []int, g vnRuns) error {
	next := 0
	for vn, n := range sizes {
		if n < 0 || n > a.n-next {
			return fmt.Errorf("mn: VN %d of %d switches does not fit after switch %d of %d", vn, n, next, a.n)
		}
		next += n
		g[vn+1] = int32(next)
	}
	return nil
}

// sizeVNs makes room for n VNs in the ready counts.
func (a *Array) sizeVNs(n int) {
	for len(a.want) < n {
		a.want = append(a.want, noWant)
		a.ready = append(a.ready, 0)
	}
}

// vnAt returns switch ms's VN in generation gen, -1 when it has none: the
// last run starting at or before ms, if ms lies inside it.
func (a *Array) vnAt(gen uint32, ms int) int32 {
	if int(gen) >= len(a.gens) {
		return -1
	}
	g := a.gens[gen]
	// Binary search: runs before lo start at or before ms, runs from hi on
	// after it.
	lo, hi := 0, len(g)-1
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); int(g[mid]) <= ms {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if v := lo - 1; v >= 0 && ms < int(g[v+1]) {
		return int32(v)
	}
	return -1
}

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
			s.vn = a.vnAt(0, ms)
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
		s.vn = a.vnAt(p.Gen, i)
		s.hasShadow = false
	}
	if !s.hasStat {
		return false
	}
	s.in.Pop()
	s.latch[s.nlatch] = psum{value: s.stationary * p.Value, seq: p.Seq, vn: s.vn}
	s.nlatch++
	if s.nlatch == 1 {
		a.headed(&s.latch[0])
	}
	return true
}

// headed accounts a product that just became the head of its switch's
// latch: it completes one more member of its VN's armed step, if it is of
// that step.
func (a *Array) headed(h *psum) {
	if h.vn >= 0 && a.want[h.vn] == uint64(h.seq) {
		a.ready[h.vn]++
	}
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

// Arm sets the step VN vn's next reduction consumes: step seq of
// generation gen. It counts the members already holding that step's
// product once; from then on products entering the head of a member's
// latch keep the count (see headed).
func (a *Array) Arm(vn int, gen, seq uint32) {
	a.want[vn] = uint64(seq)
	var n int32
	g := a.gens[gen]
	for ms := g[vn]; ms < g[vn+1]; ms++ {
		if s := &a.ms[ms]; s.nlatch > 0 && s.latch[0].seq == seq {
			n++
		}
	}
	a.ready[vn] = n
}

// ReadyVN reports whether at least expect members of VN vn hold the
// product of its armed step at the head of their latch.
func (a *Array) ReadyVN(vn, expect int) bool { return int(a.ready[vn]) >= expect }

// AppendPop removes the head psums tagged with step seq from the members
// VN vn has in generation gen, appends them to dst in member order and
// returns the extended slice; it disarms the VN. The cycle loop passes a
// reusable scratch buffer, so the pop does not allocate.
func (a *Array) AppendPop(dst []float32, vn int, gen, seq uint32) []float32 {
	a.want[vn] = noWant
	values := dst
	g := a.gens[gen]
	for ms := g[vn]; ms < g[vn+1]; ms++ {
		s := &a.ms[ms]
		if s.nlatch > 0 && s.latch[0].seq == seq {
			//lint:ignore hotpathalloc dst is the caller's reusable scratch buffer (reset to len 0 each cycle), so this append reallocates only until it reaches steady-state capacity
			values = append(values, s.latch[0].value)
			s.nlatch = copy(s.latch[:], s.latch[1:s.nlatch])
			if s.nlatch > 0 {
				a.headed(&s.latch[0])
			} else if s.in.Empty() {
				a.busy[ms>>6] &^= 1 << (ms & 63)
				a.nbusy--
			}
		}
	}
	return values
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
