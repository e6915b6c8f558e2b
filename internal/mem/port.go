package mem

import (
	"math"

	"repro/internal/comp"
	"repro/internal/comp/names"
	"repro/internal/config"
)

// Port is the memory interface an engine composition drives off-chip
// memory through. The method list and its semantics are declared once, on
// config.MemPort (config sits below mem in the package graph and names the
// port in Hardware.SharedMem); this alias is the name the simulator uses.
type Port = config.MemPort

// The private DRAM model and the shared-chip core port are the two
// implementations. They differ only in how a transfer is issued — at once
// (DRAM) or through SharedDRAM.Serve in chip time (CorePort); what a
// transfer costs (timing) and how the consumer waits for it (window) is
// the same code under both.
var (
	_ Port                 = (*DRAM)(nil)
	_ Port                 = (*CorePort)(nil)
	_ config.MemPortSource = (*CorePort)(nil)
)

// timing is the first-order cost of one off-chip transfer: stream time at
// the aggregate module bandwidth plus the row activations banking does not
// hide. It divides by hardware fields config.Hardware.Validate has checked.
type timing struct {
	elemsPerCycle float64 // aggregate deliverable elements per core cycle
	rowElems      int
	rowMiss       int
}

// newTiming takes the per-cycle element bandwidth and row shape from a
// validated description.
func newTiming(h *config.Hardware) timing {
	return timing{
		elemsPerCycle: h.DRAMElemsPerCycle(),
		rowElems:      h.DRAM.RowBytes / h.BytesPerElement,
		rowMiss:       h.DRAM.RowMissLatency,
	}
}

// rows is the row-activation count of a transfer of n elements.
func (t timing) rows(n int) int { return 1 + n/t.rowElems }

// cost returns the cycles needed to stream n > 0 elements, including the
// amortized row activations of the banked model.
func (t timing) cost(n int) float64 {
	stream := float64(n) / t.elemsPerCycle
	overhead := float64(t.rows(n)*t.rowMiss) * 0.1 // banking hides most activations
	return stream + overhead
}

// window is the consumer side of a port: the double-buffered prefetch
// horizon a composition waits on and the dram.* accounting, on the clock of
// the op the port currently serves.
type window struct {
	// prefetchReady is the cycle at which the currently prefetching tile
	// completes.
	prefetchReady float64

	cReads, cRowActs, cStallEvents, cWrites comp.Counter
}

// bind points the window at a fresh run's counter set and clears the
// prefetch horizon: a new op's clock restarts at zero.
func (w *window) bind(c *comp.Counters) {
	w.prefetchReady = 0
	w.cReads = c.Counter(names.DRAMReads)
	w.cRowActs = c.Counter(names.DRAMRowActivations)
	w.cStallEvents = c.Counter(names.DRAMStallEvents)
	w.cWrites = c.Counter(names.DRAMWrites)
}

// charge accounts a transfer of n elements over the given row activations.
func (w *window) charge(n, rows int) {
	w.cReads.Add(uint64(n))
	w.cRowActs.Add(uint64(rows))
}

// StallCycles reports how many cycles past `now` the in-flight prefetch
// still needs — zero when double buffering fully hid the transfer.
func (w *window) StallCycles(now float64) float64 {
	if w.prefetchReady <= now {
		return 0
	}
	w.cStallEvents.Add(1)
	return w.prefetchReady - now
}

// StallLookahead is the side-effect-free fast-forward probe behind
// StallCycles: it returns how many whole controller cycles from `now`
// (inclusive) the in-flight prefetch still blocks the consumer — i.e. the
// count of consecutive cycles at which StallCycles would report a stall.
// The first unblocked cycle is the smallest integer ≥ prefetchReady, so the
// bound is ceil(prefetchReady) − now. It is exact on either port because a
// transfer's completion is fixed when it is issued: on a chip, later
// traffic from other cores can only queue behind it, never push it, so a
// core skips at most to its next interconnect event. Unlike StallCycles it
// counts no stall event; AdvanceStall replays those for the skipped cycles.
func (w *window) StallLookahead(now uint64) uint64 {
	if w.prefetchReady <= float64(now) {
		return 0
	}
	return uint64(math.Ceil(w.prefetchReady)) - now
}

// AdvanceStall replays the bookkeeping of n skipped stalled cycles: the
// ticked loop probes StallCycles once per controller cycle while blocked,
// counting one stall event each time.
func (w *window) AdvanceStall(n uint64) { w.cStallEvents.Add(n) }

// WriteBack accounts n output elements leaving for DRAM; writes are
// buffered and overlap compute, so they cost bandwidth but no stall.
func (w *window) WriteBack(n int) { w.cWrites.Add(uint64(n)) }
