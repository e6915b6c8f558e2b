// Package mem models the memory hierarchy of Section IV-B: the on-chip
// Global Buffer (GB) with configurable read/write port widths, and the
// off-chip DRAM with double-buffered prefetching into the GB — the role
// DRAMsim3 plays for the original tool, reduced to the first-order timing
// behaviour the accelerator observes (bandwidth ceiling, row hit/miss
// latency, prefetch overlap with compute).
//
// The gb.*/dram.* access counters double as the trace layer's busy probes
// for the MEM tier, and ctrl.dram_wait_cycles as its bandwidth-stall probe
// (internal/trace).
package mem

import (
	"fmt"

	"repro/internal/comp"
	"repro/internal/comp/names"
	"repro/internal/config"
)

// GlobalBuffer tracks capacity and access activity. Port bandwidth is
// enforced by the distribution and reduction networks (they are the ports);
// the GB accounts the SRAM accesses for the energy model and checks that
// the working set of each tile fits.
type GlobalBuffer struct {
	sizeBytes    int
	bytesPerElem int

	// Pre-resolved handles: Read/Write run in per-element inner loops.
	cReads, cWrites comp.Counter
}

// NewGlobalBuffer builds a GB of the configured size.
func NewGlobalBuffer(h *config.Hardware, c *comp.Counters) *GlobalBuffer {
	return &GlobalBuffer{
		sizeBytes:    h.GBSizeKB * 1024,
		bytesPerElem: h.BytesPerElement,
		cReads:       c.Counter(names.GBReads),
		cWrites:      c.Counter(names.GBWrites),
	}
}

// CapacityElems returns how many elements fit in the buffer.
func (g *GlobalBuffer) CapacityElems() int { return g.sizeBytes / g.bytesPerElem }

// Read accounts n element reads.
func (g *GlobalBuffer) Read(n int) { g.cReads.Add(uint64(n)) }

// Write accounts n element writes.
func (g *GlobalBuffer) Write(n int) { g.cWrites.Add(uint64(n)) }

// CheckTileFit reports an error when a tile working set exceeds the buffer
// (weights + inputs + outputs for one tile iteration, double-buffered).
func (g *GlobalBuffer) CheckTileFit(elems int) error {
	need := 2 * elems * g.bytesPerElem // double buffering
	if need > g.sizeBytes {
		return fmt.Errorf("mem: tile working set %d B exceeds global buffer %d B", need, g.sizeBytes)
	}
	return nil
}

// DRAM models the off-chip memory modules with double-buffered prefetch:
// while tile t computes, tile t+1's operands stream in. The accelerator
// stalls only when a tile's compute time is shorter than its successor's
// fetch time. It is the run-private port: nothing else shares the modules,
// so a transfer is issued the moment it is asked for.
type DRAM struct {
	timing
	window
}

// NewDRAM builds the private model of the configured modules.
func NewDRAM(h *config.Hardware, c *comp.Counters) *DRAM {
	d := &DRAM{timing: newTiming(h)}
	d.bind(c)
	return d
}

// FetchCycles returns the cycles needed to stream n elements — a blocking
// fetch that leaves the prefetch window untouched.
func (d *DRAM) FetchCycles(n int) float64 {
	if n <= 0 {
		return 0
	}
	d.charge(n, d.rows(n))
	return d.cost(n)
}

// BeginPrefetch records that a tile of n elements starts streaming at
// cycle `now`, or behind the prefetch still in flight; it returns nothing —
// StallCycles later reports how long the consumer must wait for it.
func (d *DRAM) BeginPrefetch(now float64, n int) {
	d.prefetchReady = max(now, d.prefetchReady) + d.FetchCycles(n)
}
