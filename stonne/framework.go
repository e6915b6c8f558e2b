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

// Model-file front end (the Caffe-path analogue): models described in a
// JSON file, weights in the binary .stnw format.
var (
	// LoadModelFile parses a JSON model description.
	LoadModelFile = dnn.LoadModelFile
	// LoadWeightsFile reads a binary weights file.
	LoadWeightsFile = dnn.LoadWeightsFile
	// CheckWeights verifies weights cover a model with matching shapes.
	CheckWeights = dnn.CheckWeights
)

// RunOptions tunes a full-model simulation.
type RunOptions struct {
	// Policy is the sparse filter-scheduling strategy (SIGMA-like only).
	Policy SchedPolicy
	// DisableSNAPEACut turns the SNAPEA early-termination logic off,
	// yielding the paper's "Baseline" architecture.
	DisableSNAPEACut bool
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

// RunLayer runs one offloaded layer on the simulated accelerator: the
// layer becomes an operation, and the instance executes it as it would a
// RunOperation. Linear and GEMM layers run as SpMM, which is a dense GEMM
// on every composition but the sparse one.
func (o *simOffloader) RunLayer(l *dnn.Layer, in, w *tensor.Tensor) (*tensor.Tensor, error) {
	op := operation{layer: l.Name, policy: o.opts.Policy}
	switch l.Kind {
	case dnn.Conv:
		op.kind, op.weights, op.inputs, op.conv = opCONV, w, in, l.Conv
		op.cut = !o.opts.DisableSNAPEACut && o.cutSafe[l.Name]
	case dnn.Linear:
		// out = W(Out×In) × inᵀ(In×B), transposed back to (B, Out).
		op.kind, op.weights, op.inputs = opSpMM, w, tensor.Transpose(in)
	case dnn.GEMM:
		a, b, err := dnn.GEMMOperands(l, in)
		if err != nil {
			return nil, err
		}
		op.kind, op.weights, op.inputs = opSpMM, a, b
	default:
		return nil, fmt.Errorf("stonne: layer %s of kind %v cannot be offloaded", l.Name, l.Kind)
	}
	out, _, err := o.inst.execute(op)
	if err != nil {
		return nil, err
	}
	if l.Kind == dnn.Linear {
		out = tensor.Transpose(out)
	}
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
