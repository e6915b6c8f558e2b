package sim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/comp/names"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Placement selects how the chip scheduler maps a workload's (stream,
// stage) grid onto cores.
type Placement int

const (
	// PlaceLayer assigns stage s to core s%N: the model's layers are split
	// into contiguous stages, one per core, and successive streams pipeline
	// through them with activations handed off through DRAM — the
	// layer-parallel policy.
	PlaceLayer Placement = iota
	// PlaceBatch assigns stream b to core b%N: every core runs the whole
	// model and streams are dealt round-robin — the batch-parallel policy.
	PlaceBatch
)

// String returns the CLI spelling of the placement.
func (p Placement) String() string {
	if p == PlaceBatch {
		return "batch"
	}
	return "layer"
}

// ParsePlacement parses the CLI spelling ("layer" or "batch").
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "layer", "":
		return PlaceLayer, nil
	case "batch":
		return PlaceBatch, nil
	}
	return 0, fmt.Errorf("sim: unknown placement %q (available: layer, batch)", s)
}

// ChipConfig describes a chip composition: one hardware configuration per
// core (cores may differ — each resolves its own registered Arch), the
// shared-DRAM bank count and link bandwidth, and the placement policy.
type ChipConfig struct {
	Cores []config.Hardware
	// Banks is the shared DRAM bank count; <= 0 uses mem.DefaultBanks.
	Banks int
	// LinkGBs overrides the shared link bandwidth; <= 0 derives it from
	// the first core's DRAM configuration.
	LinkGBs   float64
	Placement Placement
}

// Workload is what a chip schedules: a grid of streams (independent
// inference requests) by stages (contiguous slices of work a stream passes
// through in order). RunStage executes one cell on the given core — on
// whatever the workload built from Chip.Core(core) — and returns the per-op
// runs plus the element count of the activation handed to the next stage
// (charged as a DRAM transfer when the next stage sits on a different core).
type Workload interface {
	Streams() int
	Stages() int
	RunStage(stream, stage, core int) ([]*stats.Run, int, error)
}

// Chip composes N cores — each an independently configured registered Arch
// driven by its own Kernel/Ctx per op — around a shared banked DRAM. It
// builds no core: it wires each core's hardware description to the shared
// memory (Core) and schedules the workload that runs on them. The
// scheduler is event-driven at stage granularity: cores simulate their ops
// with the usual cycle-level kernels (watchdog and fast-forward intact),
// while the chip advances a virtual clock from stage completion to stage
// completion, serializing execution in deterministic event order so shared
// memory contention resolves identically on every run.
//
// A 1-core chip builds no shared memory system at all: the single core
// keeps its run-private DRAM model, so its runs are byte-identical to the
// bare-kernel path — the pin the parity tests in internal/engine enforce.
type Chip struct {
	cfg    ChipConfig
	ports  []*mem.CorePort
	shared *mem.SharedDRAM

	// OnOp, when non-nil, observes every completed stage: the core it ran
	// on, the (stream, stage) cell and the chip cycle it finished — the hook
	// the service feeds a per-core progress board from.
	OnOp func(core, stream, stage int, endCycle uint64)
}

// NewChip validates every core and builds the shared memory system.
func NewChip(cfg ChipConfig) (*Chip, error) {
	if len(cfg.Cores) == 0 {
		return nil, fmt.Errorf("sim: chip needs at least one core")
	}
	// Validate every core before anything is built from one: the shared
	// memory system takes core 0's description on trust.
	for i := range cfg.Cores {
		if err := cfg.Cores[i].Validate(); err != nil {
			return nil, fmt.Errorf("sim: chip core %d: %w", i, err)
		}
	}
	c := &Chip{cfg: cfg}
	if len(cfg.Cores) > 1 {
		shared, err := mem.NewSharedDRAM(&cfg.Cores[0], cfg.Banks, cfg.LinkGBs)
		if err != nil {
			return nil, fmt.Errorf("sim: chip shared memory: %w", err)
		}
		c.shared = shared
		c.ports = make([]*mem.CorePort, len(cfg.Cores))
		for i := range c.ports {
			c.ports[i] = mem.NewCorePort(c.shared)
		}
	}
	return c, nil
}

// Core returns core i's hardware description, wired to its shared-memory
// port on a multi-core chip. A 1-core chip returns it unchanged: the core
// keeps its run-private DRAM model.
func (c *Chip) Core(i int) config.Hardware {
	hw := c.cfg.Cores[i]
	if c.ports != nil {
		hw.SharedMem = c.ports[i]
	}
	return hw
}

// coreOf maps a (stream, stage) cell to its core under the placement.
func (c *Chip) coreOf(stream, stage int) int {
	if c.cfg.Placement == PlaceBatch {
		return stream % len(c.cfg.Cores)
	}
	return stage % len(c.cfg.Cores)
}

// Run schedules the workload to completion. Each iteration picks the
// runnable (stream, stage) cell with the earliest possible start — the
// maximum of its core's free cycle and its predecessor stage's handoff —
// and simulates it there, so execution order is a deterministic function
// of the workload alone. Cancellation is checked between stages; inside a
// stage the per-op kernels keep their own watchdogs, and fast-forward
// composes because a core's skip bound never crosses its next interconnect
// event (see mem.CorePort.StallLookahead).
func (c *Chip) Run(ctx context.Context, w Workload) (*stats.ChipRun, error) {
	streams, stages := w.Streams(), w.Stages()
	if streams <= 0 || stages <= 0 {
		return nil, fmt.Errorf("sim: chip workload has %d streams × %d stages", streams, stages)
	}
	banks := 0
	if c.shared != nil {
		banks = c.shared.Banks()
	}
	res := stats.NewChipRun(c.cfg.Placement.String(), len(c.cfg.Cores), banks, streams)

	coreFree := make([]float64, len(c.cfg.Cores))
	nextStage := make([]int, streams)
	ready := make([]float64, streams) // earliest start of the stream's next stage
	var makespan float64
	for remaining := streams * stages; remaining > 0; remaining-- {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: chip run cancelled: %w", err)
		}
		// Earliest-start-first, ties to the lowest stream: deterministic.
		pick := -1
		var pickStart float64
		for b := 0; b < streams; b++ {
			if nextStage[b] >= stages {
				continue
			}
			start := ready[b]
			if cf := coreFree[c.coreOf(b, nextStage[b])]; cf > start {
				start = cf
			}
			if pick == -1 || start < pickStart {
				pick, pickStart = b, start
			}
		}
		b := pick
		s := nextStage[b]
		core := c.coreOf(b, s)
		if c.ports != nil {
			c.ports[core].StartOp(pickStart)
		}
		runs, elems, err := w.RunStage(b, s, core)
		if err != nil {
			return nil, fmt.Errorf("sim: chip stream %d stage %d on core %d: %w", b, s, core, err)
		}
		var cycles uint64
		for _, r := range runs {
			if c.shared != nil {
				attachICN(r)
			}
			cycles += r.Cycles
			if err := res.Add(core, r); err != nil {
				return nil, fmt.Errorf("sim: chip stream %d stage %d: %w", b, s, err)
			}
		}
		end := pickStart + float64(cycles)
		coreFree[core] = end
		hand := end
		if s+1 < stages && c.shared != nil && c.coreOf(b, s+1) != core && elems > 0 {
			// The activation crosses cores through the shared DRAM: the
			// handoff transfer contends like any other traffic.
			hand = c.ports[core].Handoff(end, elems)
		}
		ready[b] = hand
		nextStage[b]++
		if end > makespan {
			makespan = end
		}
		if c.OnOp != nil {
			c.OnOp(core, b, s, uint64(math.Ceil(end)))
		}
	}
	res.MakespanCycles = uint64(math.Ceil(makespan))
	for i, r := range res.PerCore {
		r.Accelerator = c.cfg.Cores[i].Name
		r.RecomputeUtilization(c.cfg.Cores[i].MSSize)
	}
	totalMS := 0
	for i := range c.cfg.Cores {
		totalMS += c.cfg.Cores[i].MSSize
	}
	res.Total.RecomputeUtilization(totalMS)
	return res, nil
}

// attachICN reconstructs the op's interconnect tier from its icn.*
// counters and attaches it to the breakdown, preserving the exact-sum
// invariant. Only multi-core runs reach here, so bare-kernel and 1-core
// chip breakdowns stay untouched.
func attachICN(r *stats.Run) {
	if r.Breakdown == nil {
		r.Breakdown = make(map[string]stats.CycleBreakdown, 1)
	}
	r.Breakdown[trace.TierICN] = trace.ICNBreakdown(
		r.Cycles,
		r.Counters[names.ICNBusyCycles],
		r.Counters[names.ICNWaitCycles],
	)
}
