package dnn

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tensor"
)

// Training support — the paper lists it as ongoing work ("Support of
// training procedures in STONNE is part of our ongoing work"), and SIGMA,
// one of the modelled architectures, targets training explicitly. This
// file implements one training step for sequential models: a forward pass
// with activation caching, softmax–cross-entropy loss, and a backward pass
// whose three matrix products per weighted layer (the dominant compute)
// are routed through a GEMMRunner so a simulated accelerator can execute
// them:
//
//	linear:  dX = dYᵀ·W reshaped, dW = dYᵀ·X
//	conv:    dW = dY_mat·colsᵀ, dX = Wᵀ·dY_mat (then col2im)
//
// Residual/Concat/Detached graphs are out of scope here (the paper's
// training support never landed either); TrainStep rejects them.

// GEMMRunner executes one dense matrix product on behalf of the trainer —
// a simulated accelerator in this repo, or nil for native CPU execution.
type GEMMRunner interface {
	RunTrainGEMM(a, b *tensor.Tensor, tag string) (*tensor.Tensor, error)
}

// TrainResult reports one step's loss and weight gradients.
type TrainResult struct {
	Loss  float64
	Grads map[string]*tensor.Tensor
}

// TrainStep runs forward + backward for one input and target class. The
// model must be sequential (no skip connections) and end in a Softmax; the
// loss is cross-entropy over the softmax output.
func TrainStep(m *Model, w *Weights, input *tensor.Tensor, label int, run GEMMRunner) (*TrainResult, error) {
	for i := range m.Layers {
		l := &m.Layers[i]
		if l.Kind == Residual || l.Kind == Concat || l.Detached || l.Kind == GEMM {
			return nil, fmt.Errorf("dnn: TrainStep supports sequential models only (layer %s is %v)", l.Name, l.Kind)
		}
	}
	if len(m.Layers) == 0 || m.Layers[len(m.Layers)-1].Kind != Softmax {
		return nil, fmt.Errorf("dnn: TrainStep requires a trailing Softmax layer")
	}
	if run == nil {
		run = nativeGEMM{}
	}

	// Forward with caches.
	type cache struct {
		in   *tensor.Tensor // layer input
		cols []*tensor.Tensor
		out  *tensor.Tensor
	}
	caches := make([]cache, len(m.Layers))
	act := input
	for i := range m.Layers {
		l := &m.Layers[i]
		c := &caches[i]
		c.in = act
		var err error
		switch l.Kind {
		case Conv:
			cs := l.Conv
			out := tensor.New(cs.N, cs.K, cs.OutX(), cs.OutY())
			kg := cs.K / cs.G
			for g := 0; g < cs.G; g++ {
				cols, err := tensor.Im2Col(act, cs, g)
				if err != nil {
					return nil, err
				}
				c.cols = append(c.cols, cols)
				fm, err := tensor.FilterMatrix(w.ByLayer[l.Name], cs, g)
				if err != nil {
					return nil, err
				}
				prod, err := run.RunTrainGEMM(fm, cols, l.Name+".fwd")
				if err != nil {
					return nil, err
				}
				scatterConvOut(prod, out, cs, g, kg)
			}
			act = out
		case Linear:
			x, err := act.Reshape(act.Len()/l.In, l.In)
			if err != nil {
				return nil, err
			}
			c.in = x
			// Y = W(Out×In) × Xᵀ → transpose back to (B, Out).
			yT, err := run.RunTrainGEMM(w.ByLayer[l.Name], tensor.Transpose(x), l.Name+".fwd")
			if err != nil {
				return nil, err
			}
			act = tensor.Transpose(yT)
		case ReLU:
			out := act.Clone()
			out.Apply(func(v float32) float32 {
				if v < 0 {
					return 0
				}
				return v
			})
			act = out
		case BatchNorm:
			// identity at inference statistics
		case MaxPool:
			act, err = pool2D(act, l.Pool, true)
			if err != nil {
				return nil, err
			}
		case AvgPool:
			act, err = pool2D(act, l.Pool, false)
			if err != nil {
				return nil, err
			}
		case Flatten:
			act, err = act.Reshape(1, act.Len())
			if err != nil {
				return nil, err
			}
		case Softmax:
			act = softmax(act)
		default:
			return nil, fmt.Errorf("dnn: TrainStep cannot handle layer kind %v", l.Kind)
		}
		c.out = act
	}

	// Loss and the fused softmax+cross-entropy gradient: dLogits = p − 1ₗ.
	probs := act
	if label < 0 || label >= probs.Len() {
		return nil, fmt.Errorf("dnn: label %d out of range [0,%d)", label, probs.Len())
	}
	p := float64(probs.Data()[label])
	if p < 1e-12 {
		p = 1e-12
	}
	res := &TrainResult{Loss: -math.Log(p), Grads: map[string]*tensor.Tensor{}}
	grad := probs.Clone()
	grad.Data()[label] -= 1

	// Backward.
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := &m.Layers[i]
		c := &caches[i]
		switch l.Kind {
		case Softmax:
			// folded into the loss gradient above
		case Flatten:
			g, err := grad.Reshape(c.in.Shape()...)
			if err != nil {
				return nil, err
			}
			grad = g
		case ReLU:
			g := grad.Clone()
			gd, od := g.Data(), c.out.Data()
			for j := range gd {
				if od[j] == 0 {
					gd[j] = 0
				}
			}
			grad = g
		case BatchNorm:
			// identity
		case MaxPool:
			g, err := maxPoolBackward(c.in, c.out, grad, l.Pool)
			if err != nil {
				return nil, err
			}
			grad = g
		case AvgPool:
			g, err := avgPoolBackward(c.in, grad, l.Pool)
			if err != nil {
				return nil, err
			}
			grad = g
		case Linear:
			x := c.in                                         // (B, In)
			dY := grad                                        // (B, Out)
			dYT := tensor.Transpose(dY)                       // (Out, B)
			dW, err := run.RunTrainGEMM(dYT, x, l.Name+".dW") // (Out, In)
			if err != nil {
				return nil, err
			}
			res.Grads[l.Name] = dW
			dX, err := run.RunTrainGEMM(dY, w.ByLayer[l.Name], l.Name+".dX") // (B, In)
			if err != nil {
				return nil, err
			}
			grad = dX
		case Conv:
			cs := l.Conv
			kg := cs.K / cs.G
			cg := cs.C / cs.G
			dWfull := tensor.New(cs.K, cg, cs.R, cs.S)
			dIn := tensor.New(cs.N, cs.C, cs.X, cs.Y)
			for g := 0; g < cs.G; g++ {
				dYmat := gatherConvGrad(grad, cs, g, kg) // (kg, N·X'·Y')
				// dW = dY_mat × colsᵀ.
				dW, err := run.RunTrainGEMM(dYmat, tensor.Transpose(c.cols[g]), l.Name+".dW")
				if err != nil {
					return nil, err
				}
				scatterFilterGrad(dW, dWfull, cs, g, kg)
				// dCols = Wᵀ × dY_mat, then col2im.
				fm, err := tensor.FilterMatrix(w.ByLayer[l.Name], cs, g)
				if err != nil {
					return nil, err
				}
				dCols, err := run.RunTrainGEMM(tensor.Transpose(fm), dYmat, l.Name+".dX")
				if err != nil {
					return nil, err
				}
				col2imAdd(dCols, dIn, cs, g)
			}
			res.Grads[l.Name] = dWfull
			grad = dIn
		}
	}
	return res, nil
}

// ApplySGD updates the weights in place: w ← w − lr·g. Pruned (zero)
// weights stay zero, preserving the sparsity structure — the standard
// fixed-mask fine-tuning regime.
func ApplySGD(w *Weights, grads map[string]*tensor.Tensor, lr float64) error {
	// Walk layers in sorted order. Each layer's tensor is disjoint so the
	// updates commute, but a sorted walk also makes the "unknown layer"
	// error deterministic when several gradients are stale.
	names := make([]string, 0, len(grads))
	for name := range grads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := grads[name]
		t, ok := w.ByLayer[name]
		if !ok {
			return fmt.Errorf("dnn: gradient for unknown layer %s", name)
		}
		td, gd := t.Data(), g.Data()
		if len(td) != len(gd) {
			return fmt.Errorf("dnn: gradient shape mismatch for %s", name)
		}
		for i := range td {
			if td[i] == 0 {
				continue // keep the pruned mask
			}
			td[i] -= float32(lr * float64(gd[i]))
		}
	}
	return nil
}

type nativeGEMM struct{}

func (nativeGEMM) RunTrainGEMM(a, b *tensor.Tensor, tag string) (*tensor.Tensor, error) {
	return tensor.MatMul(a, b)
}

func scatterConvOut(prod, out *tensor.Tensor, cs tensor.ConvShape, g, kg int) {
	xo, yo := cs.OutX(), cs.OutY()
	nc := xo * yo
	for kf := 0; kf < kg; kf++ {
		kk := g*kg + kf
		for n := 0; n < cs.N; n++ {
			for p := 0; p < nc; p++ {
				out.Set(prod.At(kf, n*nc+p), n, kk, p/yo, p%yo)
			}
		}
	}
}

func gatherConvGrad(grad *tensor.Tensor, cs tensor.ConvShape, g, kg int) *tensor.Tensor {
	xo, yo := cs.OutX(), cs.OutY()
	nc := xo * yo
	out := tensor.New(kg, cs.N*nc)
	for kf := 0; kf < kg; kf++ {
		kk := g*kg + kf
		for n := 0; n < cs.N; n++ {
			for p := 0; p < nc; p++ {
				out.Set(grad.At(n, kk, p/yo, p%yo), kf, n*nc+p)
			}
		}
	}
	return out
}

func scatterFilterGrad(dW, full *tensor.Tensor, cs tensor.ConvShape, g, kg int) {
	cg := cs.C / cs.G
	for kf := 0; kf < kg; kf++ {
		kk := g*kg + kf
		col := 0
		for c := 0; c < cg; c++ {
			for r := 0; r < cs.R; r++ {
				for s := 0; s < cs.S; s++ {
					full.Set(dW.At(kf, col), kk, c, r, s)
					col++
				}
			}
		}
	}
}

// col2imAdd scatters column gradients back to input coordinates, summing
// overlaps — the adjoint of Im2Col.
func col2imAdd(dCols, dIn *tensor.Tensor, cs tensor.ConvShape, g int) {
	cg := cs.C / cs.G
	xo, yo := cs.OutX(), cs.OutY()
	col := 0
	for n := 0; n < cs.N; n++ {
		for ox := 0; ox < xo; ox++ {
			for oy := 0; oy < yo; oy++ {
				row := 0
				for c := 0; c < cg; c++ {
					cc := g*cg + c
					for r := 0; r < cs.R; r++ {
						ix := ox*cs.Stride + r - cs.Padding
						for s := 0; s < cs.S; s++ {
							iy := oy*cs.Stride + s - cs.Padding
							if ix >= 0 && ix < cs.X && iy >= 0 && iy < cs.Y {
								dIn.Set(dIn.At(n, cc, ix, iy)+dCols.At(row, col), n, cc, ix, iy)
							}
							row++
						}
					}
				}
				col++
			}
		}
	}
}

func maxPoolBackward(in, out, grad *tensor.Tensor, p PoolShape) (*tensor.Tensor, error) {
	dIn := tensor.New(in.Shape()...)
	n, c := in.Dim(0), in.Dim(1)
	x, y := in.Dim(2), in.Dim(3)
	ox, oy := out.Dim(2), out.Dim(3)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for i := 0; i < ox; i++ {
				for j := 0; j < oy; j++ {
					// Route the gradient to the first element matching the
					// recorded maximum.
					target := out.At(ni, ci, i, j)
					done := false
					for wi := 0; wi < p.Window && !done; wi++ {
						xi := i*p.Stride + wi - p.Padding
						if xi < 0 || xi >= x {
							continue
						}
						for wj := 0; wj < p.Window; wj++ {
							yj := j*p.Stride + wj - p.Padding
							if yj < 0 || yj >= y {
								continue
							}
							//lint:ignore floatcmp argmax recovery: target was copied bit-for-bit out of this window in the forward pass, so exact equality is the correct test
							if in.At(ni, ci, xi, yj) == target {
								dIn.Set(dIn.At(ni, ci, xi, yj)+grad.At(ni, ci, i, j), ni, ci, xi, yj)
								done = true
								break
							}
						}
					}
				}
			}
		}
	}
	return dIn, nil
}

func avgPoolBackward(in, grad *tensor.Tensor, p PoolShape) (*tensor.Tensor, error) {
	dIn := tensor.New(in.Shape()...)
	n, c := in.Dim(0), in.Dim(1)
	x, y := in.Dim(2), in.Dim(3)
	ox, oy := grad.Dim(2), grad.Dim(3)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for i := 0; i < ox; i++ {
				for j := 0; j < oy; j++ {
					// Count the window's in-bounds elements.
					count := 0
					for wi := 0; wi < p.Window; wi++ {
						xi := i*p.Stride + wi - p.Padding
						if xi < 0 || xi >= x {
							continue
						}
						for wj := 0; wj < p.Window; wj++ {
							yj := j*p.Stride + wj - p.Padding
							if yj >= 0 && yj < y {
								count++
							}
						}
					}
					if count == 0 {
						continue
					}
					share := grad.At(ni, ci, i, j) / float32(count)
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
							dIn.Set(dIn.At(ni, ci, xi, yj)+share, ni, ci, xi, yj)
						}
					}
				}
			}
		}
	}
	return dIn, nil
}
