package stonne

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// ChipRun is the aggregated result of a multi-core chip simulation.
type ChipRun = stats.ChipRun

// ChipOptions configures a multi-core chip simulation (sim.Chip): how many
// cores, how work is placed on them, and the shared-DRAM shape.
type ChipOptions struct {
	// Cores is the core count; <= 1 simulates a single core (whose runs
	// are byte-identical to RunModel on the same hardware).
	Cores int
	// Placement is "layer" (default: pipeline contiguous layer stages
	// across cores) or "batch" (deal whole inference streams round-robin).
	Placement string
	// Banks is the shared DRAM bank count; <= 0 uses mem.DefaultBanks.
	Banks int
	// LinkGBs overrides the shared memory link bandwidth; <= 0 derives it
	// from the hardware configuration.
	LinkGBs float64
	// Progress, when non-nil, observes every completed stage with the chip
	// cycle it finished at — the per-core progress hook the CLI feeds a
	// simpool.Board from.
	Progress func(core, stream, stage int, endCycle uint64)
}

// chipStream is one inference request's state between pipeline stages:
// exactly the (activation, saved-map) pair dnn.Executor.RunRange resumes
// from.
type chipStream struct {
	act   *tensor.Tensor
	saved map[string]*tensor.Tensor
}

// chipWorkload adapts a model inference over many inputs to the chip
// scheduler's (stream × stage) grid. Each stage offloads its layer range to
// a per-core Instance through the same simOffloader as RunModel, so every
// layer is one operation run by Instance.execute, as in single-core
// RunModel.
type chipWorkload struct {
	m       *Model
	wts     *Weights
	offs    []*simOffloader // one per core
	bounds  [][2]int
	streams []chipStream
	outs    []*Tensor
}

func (w *chipWorkload) Streams() int { return len(w.streams) }
func (w *chipWorkload) Stages() int  { return len(w.bounds) }

func (w *chipWorkload) RunStage(stream, stage, core int) ([]*stats.Run, int, error) {
	off := w.offs[core]
	inst := off.inst
	exec := &dnn.Executor{Model: w.m, Weights: w.wts, Offload: off}
	before := len(inst.Runs)
	st := &w.streams[stream]
	out, err := exec.RunRange(st.act, st.saved, w.bounds[stage][0], w.bounds[stage][1])
	if err != nil {
		return nil, 0, err
	}
	st.act = out
	if stage == len(w.bounds)-1 {
		w.outs[stream] = out
	}
	return inst.Runs[before:], out.Len(), nil
}

// RunModelChip executes one inference per input tensor on a simulated chip
// of copts.Cores identically configured cores sharing a banked DRAM — the
// multi-core analogue of RunModel. Under layer placement the model is cut
// into MAC-balanced contiguous stages (one per core) and the streams
// pipeline through them, activations handed off through DRAM; under batch
// placement each core runs whole streams. It returns the final activation
// of every stream (bit-identical to RunModel's output for the same input)
// and the aggregated chip statistics.
func RunModelChip(ctx context.Context, m *Model, wts *Weights, inputs []*Tensor, hw Hardware, copts ChipOptions, opts *RunOptions) ([]*Tensor, *ChipRun, error) {
	if len(inputs) == 0 {
		return nil, nil, fmt.Errorf("stonne: chip run needs at least one input stream")
	}
	if opts == nil {
		opts = &RunOptions{}
	}
	cores := copts.Cores
	if cores < 1 {
		cores = 1
	}
	placement, err := sim.ParsePlacement(copts.Placement)
	if err != nil {
		return nil, nil, err
	}

	coreHW := make([]config.Hardware, cores)
	for i := range coreHW {
		coreHW[i] = hw
	}
	chip, err := sim.NewChip(sim.ChipConfig{Cores: coreHW, Banks: copts.Banks, LinkGBs: copts.LinkGBs, Placement: placement})
	if err != nil {
		return nil, nil, err
	}
	offs := make([]*simOffloader, cores)
	cutSafe := dnn.SNAPEACutSafe(m)
	for i := range offs {
		inst, err := CreateInstance(chip.Core(i))
		if err != nil {
			return nil, nil, fmt.Errorf("stonne: chip core %d: %w", i, err)
		}
		offs[i] = &simOffloader{inst: inst, opts: *opts, cutSafe: cutSafe}
	}

	stages := 1
	if placement == sim.PlaceLayer {
		stages = cores
	}
	w := &chipWorkload{
		m:       m,
		wts:     wts,
		offs:    offs,
		bounds:  dnn.PartitionLayers(m, stages),
		streams: make([]chipStream, len(inputs)),
		outs:    make([]*Tensor, len(inputs)),
	}
	for i, in := range inputs {
		w.streams[i] = chipStream{act: in, saved: map[string]*tensor.Tensor{}}
	}
	chip.OnOp = copts.Progress
	cr, err := chip.Run(ctx, w)
	if err != nil {
		return nil, nil, err
	}
	return w.outs, cr, nil
}
