// Package exp implements the paper's evaluation: one function per table or
// figure, each returning structured rows that the cmd/experiments harness
// prints and the benchmark suite regenerates. Workload scaling (the
// documented substitution for the authors' multi-day cluster runs) is a
// parameter everywhere and recorded in the results.
package exp

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/stonne"
)

// RepLayer is one of the eight representative layers of Figure 1,
// "X-Y" = model tag - layer class.
type RepLayer struct {
	Tag   string // e.g. "S-SC"
	Model string
	Layer dnn.Layer
}

// repLayerSpecs names the concrete layer chosen for each Figure 1 tag.
var repLayerSpecs = []struct {
	tag, model, layer string
}{
	{"S-SC", "S", "fire4_squeeze"},
	{"S-EC", "S", "fire4_expand3x3"},
	{"M-FC", "M", "dw7"},
	{"M-L", "M", "fc"},
	{"R-C", "R", "res3_2_b"},
	{"R-L", "R", "fc"},
	{"B-TR", "B", "enc1_q"},
	{"B-L", "B", "enc1_ffn_up"},
}

// RepresentativeLayers returns the eight Figure 1 layers (Squeeze, Expand,
// Factorized and Regular Convolutions, Linear, Transformer) drawn from
// Squeezenet, Resnets-50, Mobilenets and BERT, at the given spatial scale.
func RepresentativeLayers(scale int) ([]RepLayer, error) {
	models := map[string]*dnn.Model{}
	for _, m := range dnn.AllModels() {
		s, err := dnn.ScaleSpatial(m, scale)
		if err != nil {
			return nil, err
		}
		models[m.Short] = s
	}
	var out []RepLayer
	for _, spec := range repLayerSpecs {
		m, ok := models[spec.model]
		if !ok {
			return nil, fmt.Errorf("exp: no model with tag %s", spec.model)
		}
		found := false
		for i := range m.Layers {
			if m.Layers[i].Name == spec.layer {
				out = append(out, RepLayer{Tag: spec.tag, Model: m.Name, Layer: m.Layers[i]})
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("exp: layer %s not found in %s", spec.layer, m.Name)
		}
	}
	return out, nil
}

// runRepLayer simulates one representative layer, traced and from preloaded
// buffers, on hw: a convolution on its convOperands, any other layer as the
// GEMM of its layerOperands drawn from gemmSeed.
func runRepLayer(hw config.Hardware, rl RepLayer, gemmSeed uint64) (*stats.Run, error) {
	hw.Preloaded = true
	hw.Trace = &trace.Config{}
	acc, err := engine.New(hw)
	if err != nil {
		return nil, err
	}
	if rl.Layer.Kind == dnn.Conv {
		in, w := convOperands(&rl.Layer)
		_, run, err := acc.RunConv(in, w, rl.Layer.Conv, rl.Tag)
		return run, err
	}
	A, B, err := layerOperands(&rl.Layer, 0, gemmSeed)
	if err != nil {
		return nil, err
	}
	_, run, err := acc.RunGEMM(A, B, rl.Tag)
	return run, err
}

// convOperands builds deterministic input and weight tensors for a conv
// layer.
func convOperands(l *dnn.Layer) (in, w *tensor.Tensor) {
	cs := l.Conv
	rng := dnn.NewRNG(0xc04 + uint64(cs.K*cs.C*cs.X))
	in = tensor.New(1, cs.C, cs.X, cs.Y)
	dnn.FillNormal(rng, in.Data(), true)
	w = tensor.New(cs.K, cs.C/cs.G, cs.R, cs.S)
	dnn.FillNormal(rng, w.Data(), false)
	return in, w
}

// layerOperands builds deterministic operand tensors for a representative
// layer: the weight/filter matrix and the input/im2col matrix of its GEMM
// lowering, with weights optionally pruned to a sparsity ratio.
func layerOperands(l *dnn.Layer, sparsity float64, seed uint64) (A, B *tensor.Tensor, err error) {
	m, n, k := l.GEMMDims()
	rng := dnn.NewRNG(seed)
	A = tensor.New(m, k)
	dnn.FillNormal(rng, A.Data(), false)
	if sparsity > 0 {
		if err := pruneDense(A, sparsity); err != nil {
			return nil, nil, err
		}
	}
	B = tensor.New(k, n)
	dnn.FillNormal(rng, B.Data(), true)
	return A, B, nil
}

func pruneDense(t *tensor.Tensor, target float64) error {
	w := &dnn.Weights{ByLayer: map[string]*tensor.Tensor{"x": t}}
	return w.Prune(target)
}

// workload is one seeded zoo model of a figure, with its weights drawn. A
// figure builds each of its workloads once, and the simpool jobs that read
// it share it read-only: no run writes a model or its weights
// (TestRunModelLeavesWeightsUnchanged).
type workload struct {
	name string // the Table I name, without the scale suffix
	stonne.SeededModel
	w *dnn.Weights
}

// seededModels builds the workload of each model tag (nil = all seven of
// Table I), in order: the zoo model at the spatial scale, its weights drawn
// from seed and its inputs from inputSeed on. One (seed, inputSeed) pair is
// a figure's whole recipe.
func seededModels(tags []string, scale int, seed, inputSeed uint64) ([]*workload, error) {
	if tags == nil {
		tags = []string{"M", "S", "A", "R", "V", "S-M", "B"}
	}
	wls := make([]*workload, len(tags))
	for i, tag := range tags {
		full, err := dnn.ModelByShort(tag)
		if err != nil {
			return nil, err
		}
		m, err := dnn.ScaleSpatial(full, scale)
		if err != nil {
			return nil, err
		}
		sm := stonne.SeededModel{Model: m, Seed: seed, InputSeed: inputSeed}
		w, err := sm.Weights()
		if err != nil {
			return nil, err
		}
		wls[i] = &workload{name: full.Name, SeededModel: sm, w: w}
	}
	return wls, nil
}

// archHW resolves a preset from the architecture registry. The experiment
// definitions name only registered architectures, so a lookup failure is a
// programming error, not user input.
func archHW(name string, ms, bw int) config.Hardware {
	hw, err := sim.PresetHW(name, ms, bw)
	if err != nil {
		panic(err)
	}
	return hw
}
