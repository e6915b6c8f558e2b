package dnn

import "fmt"

// ScaleSpatial returns a copy of the model with every spatial dimension
// reduced by the integer factor (input X/Y and the X/Y of every conv layer).
// Channel counts, filter counts and filter sizes are preserved, so the mix
// of layer classes, the tile shapes chosen by the mapper and the sparsity
// behaviour all survive; only the number of output pixels per layer shrinks.
//
// This is the documented substitution that makes full-model cycle-level
// simulation of all seven Table I models feasible on one machine (the
// paper's artifact notes ~5 days on a cluster for the full-resolution runs).
// Experiments record which scale they used.
func ScaleSpatial(m *Model, factor int) (*Model, error) {
	if factor < 1 {
		return nil, fmt.Errorf("dnn: scale factor must be >= 1, got %d", factor)
	}
	if factor == 1 {
		return m, nil
	}
	if m.SeqLen > 0 {
		// Sequence models scale by shortening the sequence.
		out := cloneModel(m)
		out.SeqLen = ceilDiv(m.SeqLen, factor)
		for i := range out.Layers {
			l := &out.Layers[i]
			if l.Batch > 1 {
				l.Batch = ceilDiv(l.Batch, factor)
			}
			if l.Kind == GEMM {
				if l.M == m.SeqLen {
					l.M = out.SeqLen
				}
				if l.N == m.SeqLen {
					l.N = out.SeqLen
				}
				if l.K == m.SeqLen {
					l.K = out.SeqLen
				}
			}
		}
		out.Name = fmt.Sprintf("%s@1/%d", m.Name, factor)
		return out, out.Validate()
	}

	out := cloneModel(m)
	out.Name = fmt.Sprintf("%s@1/%d", m.Name, factor)
	out.InputXY = scaleDim(m.InputXY, factor)
	// Walk the graph forward recomputing each spatial size: conv and pool
	// layers transform it; everything else passes it through.
	x := out.InputXY
	prevLinOutOrig, prevLinOutNew := 0, 0
	for i := range out.Layers {
		l := &out.Layers[i]
		switch l.Kind {
		case Conv:
			l.Conv.X, l.Conv.Y = x, x
			// Shrink the filter or padding if the feature map became too
			// small for the original window.
			for l.Conv.R > x+2*l.Conv.Padding {
				l.Conv.R--
				l.Conv.S--
			}
			if l.Detached {
				continue // side branch: does not advance the main chain
			}
			x = l.Conv.OutX()
		case MaxPool, AvgPool:
			p := &l.Pool
			for p.Window > x+2*p.Padding {
				p.Window--
			}
			if p.Window < 1 {
				p.Window = 1
			}
			if p.Stride > p.Window {
				p.Stride = p.Window
			}
			nx, err := p.Out(x)
			if err != nil {
				return nil, fmt.Errorf("dnn: layer %s: %w", l.Name, err)
			}
			x = nx
		case Linear:
			// The first linear after a flatten must accept whatever the
			// final feature map flattens to; a linear chained after
			// another linear follows that layer's (possibly shrunk) width.
			origOut := l.Out
			if i > 0 && out.Layers[i-1].Kind == Flatten {
				c := lastChannels(out.Layers[:i])
				if c > 0 {
					l.In = c * x * x
				}
			} else if prevLinOutOrig > 0 && l.In == prevLinOutOrig {
				l.In = prevLinOutNew
			}
			// Hidden fully-connected layers shrink with the model so the
			// conv/fc work balance of the full-resolution network is
			// preserved; the final classifier keeps its class count.
			if l.Out >= 256 && !isFinalLinear(out.Layers, i) {
				l.Out = max(64, l.Out/factor)
			}
			prevLinOutOrig, prevLinOutNew = origOut, l.Out
		}
	}
	return out, out.Validate()
}

func isFinalLinear(layers []Layer, i int) bool {
	for j := i + 1; j < len(layers); j++ {
		if layers[j].Kind == Linear {
			return false
		}
	}
	return true
}

func lastChannels(layers []Layer) int {
	for i := len(layers) - 1; i >= 0; i-- {
		l := &layers[i]
		if l.Detached {
			continue
		}
		if l.Kind == Conv {
			return l.Conv.K
		}
	}
	return 0
}

func scaleDim(d, factor int) int {
	v := d / factor
	if v < 8 {
		v = 8
	}
	return v
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// cloneModel copies the model with an independent layer slice; every layer
// field is a value type, so the element copy is already deep.
func cloneModel(m *Model) *Model {
	out := *m
	out.Layers = append([]Layer(nil), m.Layers...)
	return &out
}
