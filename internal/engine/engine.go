// Package engine composes the microarchitecture modules (distribution,
// multiplier and reduction networks, memory controllers, buffers) into
// complete simulated accelerators and runs operations on them cycle by
// cycle. It provides the four compositions of the paper: TPU-like
// (systolic), MAERI-like (flexible dense), SIGMA-like (flexible sparse) and
// SNAPEA-like (data-dependent early termination).
//
// Each composition is a sim.Runner registered with the architecture
// registry (see register.go); the Accelerator facade resolves the runner
// for a configuration once at construction, so adding a fifth architecture
// is one registration — no dispatch code changes anywhere above.
package engine

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/mapper"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Accelerator is one configured instance of the simulation engine — what
// the STONNE API's CreateInstance returns. It is a thin facade over the
// runner the architecture registry resolved for the configuration.
type Accelerator struct {
	hw     config.Hardware
	arch   *sim.Arch
	runner sim.Runner
}

// New validates the configuration, resolves its architecture from the
// registry and builds the accelerator instance.
func New(hw config.Hardware) (*Accelerator, error) {
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	arch, err := sim.Resolve(hw)
	if err != nil {
		return nil, err
	}
	runner, err := arch.Build(hw)
	if err != nil {
		return nil, err
	}
	return &Accelerator{hw: hw, arch: arch, runner: runner}, nil
}

// HW returns the hardware configuration.
func (a *Accelerator) HW() config.Hardware { return a.hw }

// Arch returns the registry name of the resolved architecture.
func (a *Accelerator) Arch() string { return a.arch.Name }

// SupportsScheduling reports whether the accelerator runs the sparse
// controller, i.e. filter-scheduling policies and SpMM apply.
func (a *Accelerator) SupportsScheduling() bool {
	_, ok := a.runner.(*sparseRunner)
	return ok
}

// SupportsEarlyCut reports whether the accelerator is the SNAPEA
// composition with the data-dependent early-termination logic.
func (a *Accelerator) SupportsEarlyCut() bool {
	_, ok := a.runner.(*snapeaRunner)
	return ok
}

// RunGEMM executes C = A(M×K) × B(K×N) densely on the configured fabric
// and returns the result with per-run statistics.
func (a *Accelerator) RunGEMM(A, B *tensor.Tensor, layer string) (*tensor.Tensor, *stats.Run, error) {
	if A.Rank() != 2 || B.Rank() != 2 || A.Dim(1) != B.Dim(0) {
		return nil, nil, fmt.Errorf("engine: GEMM shape mismatch %v × %v", A.Shape(), B.Shape())
	}
	return a.runner.RunGEMM(A, B, layer)
}

// RunConv executes a convolution (input NCHW, weights KCRS) and returns the
// NKX'Y' output with statistics.
func (a *Accelerator) RunConv(in, w *tensor.Tensor, cs tensor.ConvShape, layer string) (*tensor.Tensor, *stats.Run, error) {
	if err := cs.Validate(); err != nil {
		return nil, nil, err
	}
	return a.runner.RunConv(in, w, cs, layer)
}

// RunConvTiled runs a convolution with an explicit user-supplied tile — in
// STONNE, the tile configuration for every layer is part of the model
// modifications (Fig. 2d); the mapper only provides a default.
func (a *Accelerator) RunConvTiled(in, w *tensor.Tensor, cs tensor.ConvShape, layer string, tile mapper.Tile) (*tensor.Tensor, *stats.Run, error) {
	fr, ok := a.runner.(*flexDenseRunner)
	if !ok {
		return nil, nil, fmt.Errorf("engine: explicit tiles target the flexible dense composition, have %v/%v", a.hw.Ctrl, a.hw.DN)
	}
	return fr.RunConvTiled(in, w, cs, layer, tile)
}

// RunSpMM executes C = A×B where A is treated as sparse (bitmap or CSR
// front format per the configuration) and zeros in B are skipped. policy
// selects the filter scheduling strategy of use case 3 (nil = NS).
func (a *Accelerator) RunSpMM(A, B *tensor.Tensor, layer string, policy *sched.Policy) (*tensor.Tensor, *stats.Run, error) {
	sr, ok := a.runner.(*sparseRunner)
	if !ok {
		return nil, nil, fmt.Errorf("engine: RunSpMM requires the sparse controller, have %v", a.hw.Ctrl)
	}
	return sr.RunSpMM(A, B, layer, policy)
}

// RunConvScheduled runs a convolution on the sparse controller with an
// explicit filter-scheduling policy (use case 3: the prior-simulation
// function reorders the filters, the sparse controller issues them in that
// order).
func (a *Accelerator) RunConvScheduled(in, w *tensor.Tensor, cs tensor.ConvShape, layer string, pol sched.Policy) (*tensor.Tensor, *stats.Run, error) {
	sr, ok := a.runner.(*sparseRunner)
	if !ok {
		return nil, nil, fmt.Errorf("engine: filter scheduling requires the sparse controller, have %v", a.hw.Ctrl)
	}
	return sr.RunConvScheduled(in, w, cs, layer, pol)
}

// RunSNAPEAConv runs a convolution on the SNAPEA dot-product lane model
// regardless of the configured composition — the SNAPEA-vs-Baseline
// comparison runs both variants on the same configuration. cut selects
// whether the early-termination logic is active.
func (a *Accelerator) RunSNAPEAConv(in, w *tensor.Tensor, cs tensor.ConvShape, layer string, cut bool) (*tensor.Tensor, *stats.Run, error) {
	return runSNAPEAConv(&a.hw, in, w, cs, layer, cut)
}
