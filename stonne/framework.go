package stonne

import (
	"fmt"

	"repro/internal/dnn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// This file is the front-end integration of Figure 2: the Go analogue of
// the modified PyTorch whose Simulated* operations off-load
// compute-intensive layers onto a simulator instance while the remaining
// layers run natively, preserving end-to-end correctness.

// Re-exported model-zoo vocabulary.
type (
	// Model is a DNN model graph (Table I zoo).
	Model = dnn.Model
	// Layer is one operator of a model.
	Layer = dnn.Layer
	// Weights holds a model's trained tensors.
	Weights = dnn.Weights
)

// The seven models of Table I.
var (
	MobileNetsV1  = dnn.MobileNetsV1
	SqueezeNet    = dnn.SqueezeNet
	AlexNet       = dnn.AlexNet
	ResNet50      = dnn.ResNet50
	VGG16         = dnn.VGG16
	SSDMobileNets = dnn.SSDMobileNets
	BERT          = dnn.BERT
	AllModels     = dnn.AllModels
	ModelByShort  = dnn.ModelByShort

	// InitWeights generates seeded weights; Prune applies the Table I
	// sparsity; RandomInput builds a deterministic sample.
	InitWeights  = dnn.InitWeights
	RandomInput  = dnn.RandomInput
	ScaleSpatial = dnn.ScaleSpatial
)

// RunOptions tunes a full-model simulation.
type RunOptions struct {
	// Policy is the sparse filter-scheduling strategy (SIGMA-like only).
	Policy SchedPolicy
	// DisableSNAPEACut turns the SNAPEA early-termination logic off,
	// yielding the paper's "Baseline" architecture.
	DisableSNAPEACut bool
	// Tiles supplies explicit per-layer tile configurations for the dense
	// flexible fabric, keyed by layer name — the per-layer tile arguments
	// of the paper's Fig. 2(d). Layers without an entry use the mapper.
	Tiles map[string]Tile
}

// simOffloader implements dnn.Offloader on top of an Instance.
type simOffloader struct {
	inst *Instance
	opts RunOptions
	// cutSafe marks convolutions whose output feeds a ReLU directly
	// (possibly through an inference-time batch norm) — the layers SNAPEA
	// exact mode may cut.
	cutSafe map[string]bool
}

// RunLayer dispatches one offloaded layer to the simulated accelerator.
func (o *simOffloader) RunLayer(l *dnn.Layer, in, w *tensor.Tensor) (*tensor.Tensor, error) {
	inst := o.inst
	var (
		out *Tensor
		run *Run
		err error
	)
	switch l.Kind {
	case dnn.Conv:
		switch {
		case inst.acc.SupportsEarlyCut():
			cut := !o.opts.DisableSNAPEACut && o.cutSafe[l.Name]
			out, run, err = inst.acc.RunSNAPEAConv(in, w, l.Conv, l.Name, cut)
		case inst.acc.SupportsScheduling():
			out, run, err = inst.acc.RunConvScheduled(in, w, l.Conv, l.Name, o.opts.Policy)
		default:
			if tile, ok := o.opts.Tiles[l.Name]; ok {
				out, run, err = inst.acc.RunConvTiled(in, w, l.Conv, l.Name, tile)
			} else {
				out, run, err = inst.acc.RunConv(in, w, l.Conv, l.Name)
			}
		}
	case dnn.Linear:
		// out = W(Out×In) × inᵀ(In×B), reshaped to (B, Out).
		wt := w
		bt := tensor.Transpose(in)
		if inst.acc.SupportsScheduling() {
			pol := o.opts.Policy
			out, run, err = inst.acc.RunSpMM(wt, bt, l.Name, &pol)
		} else {
			out, run, err = inst.acc.RunGEMM(wt, bt, l.Name)
		}
		if err == nil {
			out = tensor.Transpose(out)
		}
	case dnn.GEMM:
		a, b, err2 := dnn.GEMMOperands(l, in)
		if err2 != nil {
			return nil, err2
		}
		if inst.acc.SupportsScheduling() {
			pol := o.opts.Policy
			out, run, err = inst.acc.RunSpMM(a, b, l.Name, &pol)
		} else {
			out, run, err = inst.acc.RunGEMM(a, b, l.Name)
		}
	default:
		return nil, fmt.Errorf("stonne: layer %s of kind %v cannot be offloaded", l.Name, l.Kind)
	}
	if err != nil {
		return nil, err
	}
	inst.tab.Apply(run, &inst.hw)
	inst.Runs = append(inst.Runs, run)
	return out, nil
}

// RunModel executes a full-model inference with every compute-intensive
// layer simulated on the given hardware (Fig. 2b). It returns the final
// activation (identical, up to float ordering, to the native execution),
// the aggregated per-layer statistics, and an error if any layer fails.
func RunModel(m *Model, w *Weights, input *Tensor, hw Hardware, opts *RunOptions) (*Tensor, *ModelRun, error) {
	if opts == nil {
		opts = &RunOptions{}
	}
	inst, err := CreateInstance(hw)
	if err != nil {
		return nil, nil, err
	}
	off := &simOffloader{inst: inst, opts: *opts, cutSafe: dnn.SNAPEACutSafe(m)}
	exec := &dnn.Executor{Model: m, Weights: w, Offload: off}
	out, err := exec.Run(input)
	if err != nil {
		return nil, nil, err
	}
	mr := &stats.ModelRun{Accelerator: hw.Name, Model: m.Name, Runs: inst.Runs}
	return out, mr, nil
}

// RunModelNative executes the model entirely on the CPU reference
// executor — the ground truth the paper compares simulated outputs against.
func RunModelNative(m *Model, w *Weights, input *Tensor) (*Tensor, error) {
	exec := &dnn.Executor{Model: m, Weights: w}
	return exec.Run(input)
}
