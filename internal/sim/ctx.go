package sim

import (
	"fmt"

	"repro/internal/comp"
	"repro/internal/comp/names"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// DeadlockWindow is the number of cycles without any observable progress
// after which a run aborts with a diagnostic instead of spinning forever —
// a controller bug, not a valid hardware state.
const DeadlockWindow = 200_000

// MaxAccEntries bounds the accumulation-buffer working set; schedulers
// panelize output sweeps so folds never need more in-flight partial sums.
const MaxAccEntries = 4096

// Ctx bundles the per-run state shared by every engine composition: one
// private counter set, Global Buffer and DRAM model, plus the cycle count
// the kernel advances. Each run owns a fresh Ctx, so concurrent runs share
// nothing.
type Ctx struct {
	HW       *config.Hardware
	Counters *comp.Counters
	GB       *mem.GlobalBuffer
	// DRAM is the run's off-chip memory port: a private DRAM model on the
	// bare-kernel path, or a per-core port into the chip-shared memory
	// system when HW.SharedMem is set (sim.Chip). Either way the engine
	// compositions drive the same method set.
	DRAM   mem.Port
	Cycles uint64
	// skipped counts the cycles the kernel fast-forwarded instead of
	// ticking, on every run: the progress hook reports it whether or not
	// the run is traced.
	skipped uint64

	// Rec is the per-run cycle-attribution recorder, nil unless the
	// hardware configuration enables tracing. Runners attribute through it
	// (the kernel per tick, non-pipelined compositions in bulk spans); all
	// Recorder methods are nil-safe.
	Rec *trace.Recorder

	// Pre-resolved results-path handles: Finish reads totals through these
	// instead of string-keyed lookups.
	cMults, cGBReads, cGBWrites comp.Counter

	// cFFSkipped charges fast-forwarded cycles to the counter set on traced
	// runs. It is only resolved (and only ever touched) when tracing is
	// enabled, so untraced runs — the dispatch-parity goldens, the
	// self-check sweep, every counter-file comparison — see byte-identical
	// counter sets with and without fast-forward.
	cFFSkipped comp.Counter
}

// NewCtx builds the per-run context for one operation on hw. A shared
// memory source on the configuration replaces the run-private DRAM with a
// port into the chip-shared system, rebound to this run's counter set;
// otherwise the run owns its DRAM model outright, byte-identical to every
// run before chips existed.
func NewCtx(hw *config.Hardware) *Ctx {
	c := comp.NewCounters()
	var port mem.Port
	if hw.SharedMem != nil {
		port = hw.SharedMem.Port(c)
	} else {
		port = mem.NewDRAM(hw, c)
	}
	ctx := &Ctx{
		HW:        hw,
		Counters:  c,
		GB:        mem.NewGlobalBuffer(hw, c),
		DRAM:      port,
		cMults:    c.Counter(names.MNMults),
		cGBReads:  c.Counter(names.GBReads),
		cGBWrites: c.Counter(names.GBWrites),
	}
	if hw.Trace != nil {
		ctx.Rec = trace.NewRecorder(c, hw.Trace)
		ctx.cFFSkipped = c.Counter(names.TraceFFSkippedCycles)
	}
	return ctx
}

// AccountSkipped records n fast-forwarded cycles. The counter is charged
// only on traced runs (see cFFSkipped); untraced runs keep their counter
// set identical to the ticked loop's, which is what the parity goldens pin.
func (c *Ctx) AccountSkipped(n uint64) {
	c.skipped += n
	if c.Rec != nil {
		c.cFFSkipped.Add(n)
	}
}

// SkippedSoFar returns the cycles fast-forward has skipped so far.
func (c *Ctx) SkippedSoFar() uint64 { return c.skipped }

// UtilizationSoFar is the multiplier busy fraction up to the current cycle,
// used by the periodic progress hook.
func (c *Ctx) UtilizationSoFar() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.cMults.Value()) / (float64(c.Cycles) * float64(c.HW.MSSize))
}

// Finish assembles the Run record.
func (c *Ctx) Finish(op, layer string, m, n, k int) *stats.Run {
	mults := c.cMults.Value()
	util := 0.0
	if c.Cycles > 0 {
		util = float64(mults) / (float64(c.Cycles) * float64(c.HW.MSSize))
	}
	run := &stats.Run{
		Accelerator: c.HW.Name,
		Op:          op,
		Layer:       layer,
		M:           m, N: n, K: k,
		Cycles:      c.Cycles,
		MACs:        mults,
		MemAccesses: c.cGBReads.Value() + c.cGBWrites.Value(),
		Utilization: util,
		Counters:    c.Counters.Snapshot(),
	}
	if c.Rec != nil {
		rt := c.Rec.Finalize(fmt.Sprintf("%s %s %s", c.HW.Name, op, layer))
		run.Breakdown = rt.Breakdown()
	}
	return run
}

// InitialFill charges the unavoidable DRAM latency of streaming the first
// working set into the Global Buffer before compute can start; later
// transfers double-buffer behind compute. The fill is attributed as memory
// busy time during which the fabric tiers wait on bandwidth.
func (c *Ctx) InitialFill(elems int) {
	if c.HW.Preloaded {
		return
	}
	half := c.GB.CapacityElems() / 2 // double-buffered halves
	if elems > half {
		elems = half
	}
	fill := uint64(c.DRAM.FetchCycles(elems))
	c.Cycles += fill
	c.Counters.Add(names.DRAMInitialFillCycles, fill)
	if c.Rec != nil {
		c.Rec.AddSpan(trace.TierMem, trace.Busy, fill)
		c.Rec.AddSpan(trace.TierDN, trace.StallBandwidth, fill)
		c.Rec.AddSpan(trace.TierMN, trace.StallBandwidth, fill)
		c.Rec.AddSpan(trace.TierRN, trace.StallBandwidth, fill)
		c.Rec.Sync()
	}
}
