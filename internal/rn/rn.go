// Package rn implements the reduction networks of Section IV-A.3: the
// MAERI Augmented Reduction Tree (ART, 3:1 adders with horizontal links),
// ART with an accumulation buffer (ART+ACC), the SIGMA Forwarding Adder
// Network (FAN, 2:1 adders), and the Linear Reduction Network of rigid
// designs. A reduction network turns per-step product sets of each virtual
// neuron into outputs, pipelined, under a per-cycle output-port budget.
//
// The rn.active_cycles / adder counters and the rn.output_stalls /
// rn.input_stalls back-pressure counters double as the trace layer's busy
// and bandwidth-stall probes for the RN tier (internal/trace).
package rn

import (
	"fmt"
	"math/bits"

	"repro/internal/comp"
	"repro/internal/comp/names"
)

// Job is one virtual neuron's product set for one step of computation.
type Job struct {
	// Values are the products entering the tree this cycle.
	Values []float32
	// OutIdx identifies the output element this (chain of) reduction(s)
	// produces.
	OutIdx int
	// Last marks the final fold: after it the accumulated value leaves the
	// network as an output.
	Last bool
}

// Result is a completed output leaving the reduction network. Last is
// propagated from the job so accumulator-less configurations can tell
// final results from fold partials.
type Result struct {
	OutIdx int
	Value  float32
	Last   bool
}

// Sink receives completed outputs (normally the Global Buffer write port);
// it must always accept — the port budget is enforced by the network.
type Sink func(r Result)

// Kind selects a reduction network implementation.
type Kind int

const (
	// ART is the augmented reduction tree without accumulators: folded
	// partial sums must round-trip through the output ports.
	ART Kind = iota
	// ARTAcc is ART with accumulation buffers at the outputs.
	ARTAcc
	// FAN is the SIGMA forwarding adder network (2:1 adders, accumulators).
	FAN
	// Linear is the serial accumulation chain of rigid accelerators.
	Linear
)

func (k Kind) String() string {
	switch k {
	case ART:
		return "ART"
	case ARTAcc:
		return "ART+ACC"
	case FAN:
		return "FAN"
	case Linear:
		return "LRN"
	default:
		return fmt.Sprintf("rn.Kind(%d)", int(k))
	}
}

// inflight is one reduction travelling the tree. The job's product set is
// folded at Offer time (same element order, hence bit-identical float
// results) so the network never retains the caller's Values slice — what
// lets the controller reuse one scratch buffer for every pop.
type inflight struct {
	outIdx int
	sum    float32
	last   bool
	ready  uint64 // cycle at which the reduced value pops out of the tree
}

// Net is the concrete implementation; behaviour differences between kinds
// are latency, adder accounting and accumulator presence.
type Net struct {
	kind       Kind
	size       int // total adder inputs per cycle == MS count
	outBW      int
	hasAcc     bool
	sink       Sink
	cycleCount uint64

	// Pre-resolved counter handles (per-cycle hot path). cAdders is the
	// kind-specific adder event counter.
	cInputStalls, cAdders, cAccAccesses comp.Counter
	cOutputs, cActive, cOutputStalls    comp.Counter

	inflight   []inflight
	acc        map[int]float32  // OutIdx -> running partial (ARTAcc/FAN)
	blocked    map[int]struct{} // reused per cycle: OutIdx retirement order
	outQ       []Result
	outHead    int // consumed prefix of outQ (head-indexed queue)
	inUsedThis int // adder inputs consumed in the current cycle
}

// New builds a reduction network of the given kind over `size` inputs with
// an output bandwidth of outBW elements/cycle.
func New(kind Kind, size, outBW int, c *comp.Counters) *Net {
	adders := names.RNAddersLRN
	switch kind {
	case ART, ARTAcc:
		adders = names.RNAdders3to1
	case FAN:
		adders = names.RNAddersFAN
	}
	return &Net{
		kind:          kind,
		size:          size,
		outBW:         outBW,
		hasAcc:        kind == ARTAcc || kind == FAN,
		cInputStalls:  c.Counter(names.RNInputStalls),
		cAdders:       c.Counter(adders),
		cAccAccesses:  c.Counter(names.RNAccAccesses),
		cOutputs:      c.Counter(names.RNOutputs),
		cActive:       c.Counter(names.RNActiveCycles),
		cOutputStalls: c.Counter(names.RNOutputStalls),
		acc:           make(map[int]float32),
		blocked:       make(map[int]struct{}),
	}
}

// SetSink wires the output destination (normally the Global Buffer write
// port).
func (n *Net) SetSink(s Sink) { n.sink = s }

// HasAccumulator reports whether folded partial sums stay inside the
// network (ART+ACC, FAN) instead of round-tripping through the GB.
func (n *Net) HasAccumulator() bool { return n.hasAcc }

// CanAccept reports whether a job with the given input count would be
// admitted this cycle, letting callers test before destructively popping
// operands from the multiplier network.
func (n *Net) CanAccept(inputs int) bool { return n.inUsedThis+inputs <= n.size }

// Offer admits a job this cycle, or returns false when the input stage has
// no capacity left and the caller must retry next cycle. A job occupies
// len(Values) tree inputs in the current cycle; the spatial tree can ingest
// `size` inputs per cycle total. The Values slice is not retained — its
// elements are folded (in order) before Offer returns, so callers may reuse
// the backing array.
func (n *Net) Offer(j Job) bool {
	need := len(j.Values)
	if need == 0 {
		return true
	}
	if n.inUsedThis+need > n.size {
		n.cInputStalls.Add(1)
		return false
	}
	n.inUsedThis += need
	sum := float32(0)
	for _, v := range j.Values {
		sum += v
	}
	//lint:ignore hotpathalloc Cycle retires by re-slicing inflight to [:0], so the backing array is reused once it reaches the network's natural occupancy
	n.inflight = append(n.inflight, inflight{
		outIdx: j.OutIdx, sum: sum, last: j.Last,
		ready: n.cycleCount + uint64(n.latency(need)),
	})
	n.countAdders(need)
	return true
}

func (n *Net) latency(inputs int) int {
	switch n.kind {
	case Linear:
		// Serial chain: one hop per element.
		if inputs < 1 {
			return 1
		}
		return inputs
	default:
		// Pipelined tree: one level per cycle.
		l := log2ceil(inputs)
		if l < 1 {
			l = 1
		}
		return l
	}
}

func (n *Net) countAdders(inputs int) {
	if inputs <= 1 {
		return
	}
	switch n.kind {
	case ART, ARTAcc:
		// 3:1 adder switches: each absorbs up to two extra operands.
		n.cAdders.Add(uint64(inputs / 2))
	default:
		// FAN / LRN: 2:1 adders, k-1 additions per reduction.
		n.cAdders.Add(uint64(inputs - 1))
	}
}

// outLen is the current output-queue occupancy.
func (n *Net) outLen() int { return len(n.outQ) - n.outHead }

// Cycle advances the pipeline: completed reductions either accumulate or
// join the output queue, and up to outBW outputs leave through the ports.
func (n *Net) Cycle() {
	n.cycleCount++
	n.inUsedThis = 0

	// Retire reductions whose tree traversal completed. Retirement is
	// in-order per output index: a short reduction (a partial last fold)
	// must not overtake an earlier fold of the same output through the
	// accumulator. The blocked set is a reused map, cleared per cycle only
	// when in-flight work exists, so an idle network allocates nothing.
	if len(n.inflight) > 0 {
		clear(n.blocked)
		kept := n.inflight[:0]
		for _, f := range n.inflight {
			if _, wait := n.blocked[f.outIdx]; wait || f.ready > n.cycleCount { //lint:ignore hotpathalloc blocked is the reused per-cycle map cleared above, never reallocated
				n.blocked[f.outIdx] = struct{}{} //lint:ignore hotpathalloc insertion into the reused blocked map; its buckets persist across cycles
				kept = append(kept, f)           //lint:ignore hotpathalloc kept re-slices inflight's own backing array ([:0]), so no new allocation
				continue
			}
			if n.hasAcc {
				n.cAccAccesses.Add(1)
				n.acc[f.outIdx] += f.sum //lint:ignore hotpathalloc acc models the accumulator RAM: sparse map keyed by live output indices, entries deleted on retire
				if f.last {
					n.outQ = append(n.outQ, Result{OutIdx: f.outIdx, Value: n.acc[f.outIdx], Last: true}) //lint:ignore hotpathalloc outQ pops head-indexed, reusing its backing array; acc read hits the live entry inserted above
					delete(n.acc, f.outIdx)
				}
			} else {
				// Without accumulators every fold's partial leaves through the
				// output ports (and is re-read by the controller), so each
				// fold occupies port bandwidth. The engine folds externally.
				n.outQ = append(n.outQ, Result{OutIdx: f.outIdx, Value: f.sum, Last: f.last}) //lint:ignore hotpathalloc outQ pops head-indexed, reusing its backing array at steady state
			}
		}
		n.inflight = kept
	}

	// Drain output ports (head-indexed pop keeps the queue's backing array).
	sent := 0
	for sent < n.outBW && n.outLen() > 0 {
		r := n.outQ[n.outHead]
		n.outHead++
		n.sink(r)
		sent++
		n.cOutputs.Add(1)
	}
	if n.outHead == len(n.outQ) {
		n.outQ = n.outQ[:0]
		n.outHead = 0
	}
	if sent > 0 {
		n.cActive.Add(1)
	}
	if n.outLen() > 0 {
		n.cOutputStalls.Add(1)
	}
}

// Drained reports no in-flight reductions or queued outputs.
func (n *Net) Drained() bool { return len(n.inflight) == 0 && n.outLen() == 0 }

// Lookahead implements comp.Lookahead. Unlike the other fabric tiers the RN
// mutates state every single Cycle — its internal clock (cycleCount) always
// advances — but that clock is exactly what Advance replays in closed form,
// so the steady-state question reduces to: for how many upcoming ticks does
// nothing retire and nothing leave the ports? Queued outputs force a tick
// immediately; an empty network is steady for any horizon; otherwise the
// earliest in-flight ready cycle bounds the skip. A tick at internal clock
// c retires entries with ready ≤ c, so from the current clock c0 the next k
// ticks (clocks c0+1 … c0+k) are no-ops exactly while k ≤ minReady − c0 − 1.
func (n *Net) Lookahead() uint64 {
	if n.outLen() > 0 {
		return 0
	}
	if len(n.inflight) == 0 {
		return comp.Unbounded
	}
	minReady := n.inflight[0].ready
	for _, f := range n.inflight[1:] {
		if f.ready < minReady {
			minReady = f.ready
		}
	}
	if minReady <= n.cycleCount+1 {
		return 0
	}
	return minReady - n.cycleCount - 1
}

// Advance implements comp.Lookahead: n skipped ticks advance the internal
// clock by n and nothing else — no retirement was due (Lookahead's bound),
// no output left, no counter would have fired.
func (n *Net) Advance(cycles uint64) { n.cycleCount += cycles }

func log2ceil(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}
