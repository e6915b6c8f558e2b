package dnn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Offloader executes one compute-intensive layer (Conv, Linear or GEMM) on
// behalf of the executor — on a simulated accelerator in this repo, or nil
// for native CPU execution. It receives the raw input activation and the
// layer's weight tensor (nil for GEMM layers, whose B operand is provided
// in b). It must return a tensor with the layer's natural output shape.
//
// This is the seam corresponding to the paper's Figure 2(b): the framework
// walks the model layer by layer, offloads compute-intensive layers to the
// accelerator, and runs the remaining layers natively.
type Offloader interface {
	RunLayer(l *Layer, in, w *tensor.Tensor) (*tensor.Tensor, error)
}

// Executor runs a model's forward pass.
type Executor struct {
	Model   *Model
	Weights *Weights
	// Offload, when non-nil, receives every layer for which
	// Kind.Offloaded() is true. Nil runs everything natively.
	Offload Offloader
	// LayerOutputs, when non-nil, receives a clone of every layer output
	// keyed by layer name (used by tests and by the scheduling study).
	LayerOutputs map[string]*tensor.Tensor
}

// Run executes the forward pass on input and returns the final activation
// (pre-argmax scores, exactly what the paper compares between PyTorch-CPU
// and STONNE executions for functional validation).
func (e *Executor) Run(input *tensor.Tensor) (*tensor.Tensor, error) {
	return e.RunRange(input, map[string]*tensor.Tensor{}, 0, len(e.Model.Layers))
}

// RunRange executes layers [from, to) starting from activation act, with
// saved holding the skip-connection activations produced so far (mutated
// in place). It returns the activation after layer to-1. This is the chip
// scheduler's stage primitive: a stream's state between pipeline stages is
// exactly the (activation, saved-map) pair, so a model can be cut at any
// layer boundary and resumed on another core.
func (e *Executor) RunRange(act *tensor.Tensor, saved map[string]*tensor.Tensor, from, to int) (*tensor.Tensor, error) {
	for i := from; i < to; i++ {
		l := &e.Model.Layers[i]
		out, err := e.runLayer(l, act, saved)
		if err != nil {
			return nil, fmt.Errorf("dnn: model %s layer %d (%s): %w", e.Model.Name, i, l.Name, err)
		}
		if e.LayerOutputs != nil {
			e.LayerOutputs[l.Name] = out.Clone()
		}
		if l.Detached {
			saved[l.SaveAs] = out
			continue
		}
		act = out
		if l.SaveAs != "" {
			saved[l.SaveAs] = act
		}
	}
	return act, nil
}

func (e *Executor) runLayer(l *Layer, act *tensor.Tensor, saved map[string]*tensor.Tensor) (*tensor.Tensor, error) {
	if l.Kind.Offloaded() && e.Offload != nil {
		w := e.Weights.ByLayer[l.Name]
		in, err := e.offloadInput(l, act)
		if err != nil {
			return nil, err
		}
		return e.Offload.RunLayer(l, in, w)
	}
	switch l.Kind {
	case Conv:
		return tensor.Conv2D(act, e.Weights.ByLayer[l.Name], l.Conv)
	case Linear:
		in, err := e.offloadInput(l, act)
		if err != nil {
			return nil, err
		}
		return LinearForward(l, in, e.Weights.ByLayer[l.Name])
	case GEMM:
		a, b, err := GEMMOperands(l, act)
		if err != nil {
			return nil, err
		}
		return tensor.MatMul(a, b)
	case MaxPool:
		return PoolForward(act, l.Pool, true)
	case AvgPool:
		return PoolForward(act, l.Pool, false)
	case ReLU:
		out := act.Clone()
		out.Apply(func(v float32) float32 {
			if v < 0 {
				return 0
			}
			return v
		})
		return out, nil
	case BatchNorm:
		// Inference-time batch norm folds into the preceding convolution's
		// weights; with synthetic weights we model it as identity.
		return act, nil
	case Softmax:
		return softmax(act), nil
	case Flatten:
		return act.Reshape(1, act.Len())
	case Residual:
		s, ok := saved[l.SkipFrom]
		if !ok {
			return nil, fmt.Errorf("residual source %q not saved", l.SkipFrom)
		}
		if !tensor.SameShape(act, s) {
			return nil, fmt.Errorf("residual shape mismatch %v vs %v", act.Shape(), s.Shape())
		}
		out := act.Clone()
		od, sd := out.Data(), s.Data()
		for i := range od {
			od[i] += sd[i]
		}
		return out, nil
	case Concat:
		s, ok := saved[l.SkipFrom]
		if !ok {
			return nil, fmt.Errorf("concat source %q not saved", l.SkipFrom)
		}
		return concatChannels(act, s)
	default:
		return nil, fmt.Errorf("unknown layer kind %v", l.Kind)
	}
}

// offloadInput reshapes the running activation into the canonical input
// layout the layer expects: (B, In) for Linear, untouched for Conv.
func (e *Executor) offloadInput(l *Layer, act *tensor.Tensor) (*tensor.Tensor, error) {
	switch l.Kind {
	case Linear:
		n := act.Len()
		if n%l.In != 0 {
			return nil, fmt.Errorf("linear input %v not a multiple of In=%d", act.Shape(), l.In)
		}
		return act.Reshape(n/l.In, l.In)
	default:
		return act, nil
	}
}

// LinearForward computes Out = In(B×In) × Wᵀ(In×Out) natively.
func LinearForward(l *Layer, in, w *tensor.Tensor) (*tensor.Tensor, error) {
	if w == nil {
		return nil, fmt.Errorf("linear layer %s has no weights", l.Name)
	}
	b := in.Dim(0)
	out := tensor.New(b, l.Out)
	ind, wd, od := in.Data(), w.Data(), out.Data()
	for r := 0; r < b; r++ {
		row := ind[r*l.In : (r+1)*l.In]
		for o := 0; o < l.Out; o++ {
			wrow := wd[o*l.In : (o+1)*l.In]
			var acc float32
			for i, x := range row {
				acc += x * wrow[i]
			}
			od[r*l.Out+o] = acc
		}
	}
	return out, nil
}

// GEMMOperands derives the A (M×K) and B (K×N) operands of a weight-less
// GEMM layer from the running activation. When the activation matches the
// required operand shape (or its transpose) it is reused — this makes the
// BERT attention-score GEMM a genuine activation×activation product; when
// it cannot match, a deterministic pseudo-activation stands in (documented
// substitution: the cycle count of a dense GEMM does not depend on values).
func GEMMOperands(l *Layer, act *tensor.Tensor) (a, b *tensor.Tensor, err error) {
	if act.Len() == l.M*l.K {
		if a, err = act.Reshape(l.M, l.K); err != nil {
			return nil, nil, err
		}
	} else {
		a = pseudoActivation(l.Name+"/A", l.M, l.K)
	}
	if act.Len() == l.K*l.N {
		r, err := act.Reshape(l.N, l.K)
		if err != nil {
			return nil, nil, err
		}
		b = tensor.Transpose(r)
	} else {
		b = pseudoActivation(l.Name+"/B", l.K, l.N)
	}
	return a, b, nil
}

func pseudoActivation(key string, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	FillNormal(NewRNG(hashName(key)), t.Data(), true)
	return t
}

func concatChannels(a, b *tensor.Tensor) (*tensor.Tensor, error) {
	if a.Rank() != 4 || b.Rank() != 4 ||
		a.Dim(0) != b.Dim(0) || a.Dim(2) != b.Dim(2) || a.Dim(3) != b.Dim(3) {
		return nil, fmt.Errorf("concat shapes incompatible %v vs %v", a.Shape(), b.Shape())
	}
	n, ca, cb, x, y := a.Dim(0), a.Dim(1), b.Dim(1), a.Dim(2), a.Dim(3)
	out := tensor.New(n, ca+cb, x, y)
	for ni := 0; ni < n; ni++ {
		for c := 0; c < ca; c++ {
			for i := 0; i < x; i++ {
				for j := 0; j < y; j++ {
					out.Set(a.At(ni, c, i, j), ni, c, i, j)
				}
			}
		}
		for c := 0; c < cb; c++ {
			for i := 0; i < x; i++ {
				for j := 0; j < y; j++ {
					out.Set(b.At(ni, c, i, j), ni, ca+c, i, j)
				}
			}
		}
	}
	return out, nil
}

// PoolForward pools an NCHW activation: the maximum of each window when
// isMax, else the mean of its non-padding elements.
func PoolForward(act *tensor.Tensor, p PoolShape, isMax bool) (*tensor.Tensor, error) {
	if act.Rank() != 4 {
		return nil, fmt.Errorf("pool expects rank-4 input, got %v", act.Shape())
	}
	n, c, x, y := act.Dim(0), act.Dim(1), act.Dim(2), act.Dim(3)
	ox, err := p.Out(x)
	if err != nil {
		return nil, err
	}
	oy, err := p.Out(y)
	if err != nil {
		return nil, err
	}
	out := tensor.New(n, c, ox, oy)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for i := 0; i < ox; i++ {
				for j := 0; j < oy; j++ {
					best := float32(math.Inf(-1))
					var sum float32
					count := 0
					for wi := 0; wi < p.Window; wi++ {
						xi := i*p.Stride + wi - p.Padding
						if xi < 0 || xi >= x {
							continue
						}
						for wj := 0; wj < p.Window; wj++ {
							yj := j*p.Stride + wj - p.Padding
							if yj < 0 || yj >= y {
								continue
							}
							v := act.At(ni, ci, xi, yj)
							if v > best {
								best = v
							}
							sum += v
							count++
						}
					}
					if isMax {
						out.Set(best, ni, ci, i, j)
					} else {
						out.Set(sum/float32(count), ni, ci, i, j)
					}
				}
			}
		}
	}
	return out, nil
}

func softmax(act *tensor.Tensor) *tensor.Tensor {
	out := act.Clone()
	d := out.Data()
	// Softmax over the last dimension, row by row.
	cols := act.Dim(act.Rank() - 1)
	for r := 0; r+cols <= len(d); r += cols {
		row := d[r : r+cols]
		max := row[0]
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v - max))
			row[i] = float32(e)
			sum += e
		}
		for i := range row {
			row[i] = float32(float64(row[i]) / sum)
		}
	}
	return out
}
