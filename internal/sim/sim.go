// Package sim is the architecture-independent simulation substrate the
// engine compositions are built on. It owns the pieces every accelerator
// shares and none should re-implement:
//
//   - the per-run context (Ctx): activity counters, Global Buffer, DRAM
//     model and the initial-fill accounting — one private instance per run,
//     which is what makes whole runs embarrassingly parallel;
//   - the cycle kernel (Kernel): the canonical simulation loop that drives
//     one Controller and its Tickable components in pipeline order, tracks
//     progress, fast-forwards certified steady states and aborts via the
//     deadlock watchdog instead of spinning forever.
//
// On top of that, the package keeps the architecture registry: each
// accelerator composition registers a named builder, and everything above
// the engine — the public API, both CLIs, the experiment figures — resolves
// architectures by name instead of switching on controller types.
package sim

import (
	"repro/internal/comp"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Tickable is a hardware module the kernel advances: Cycle runs one clock,
// and the comp.Lookahead pair certifies stretches of cycles the kernel may
// skip in one jump. The kernel ticks every Tickable once per simulated
// cycle, in registration (pipeline) order. A component that cannot certify
// a steady state returns 0 from Lookahead and is ticked every cycle.
type Tickable interface {
	Cycle()
	comp.Lookahead
}

// Unbounded mirrors comp.Unbounded: a Lookahead bound meaning "steady for
// any horizon".
const Unbounded = comp.Unbounded

// Runner is one built accelerator composition: it executes whole operations
// on the simulated fabric and returns the result with per-run statistics.
// Architecture-specific entry points (explicit tiles, scheduling policies,
// early-termination control) live on the concrete runner types; the
// Accelerator facade reaches them by type assertion.
type Runner interface {
	RunGEMM(A, B *tensor.Tensor, layer string) (*tensor.Tensor, *stats.Run, error)
	RunConv(in, w *tensor.Tensor, cs tensor.ConvShape, layer string) (*tensor.Tensor, *stats.Run, error)
}
