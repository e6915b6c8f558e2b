// Package dnn is the deep-learning front end that replaces PyTorch in this
// reproduction. It defines layers, the seven DNN models of Table I, seeded
// weight generation with magnitude pruning to the paper's sparsity ratios,
// and a CPU reference executor used as functional ground truth for the
// simulated accelerators.
package dnn

import (
	"fmt"

	"repro/internal/tensor"
)

// Kind enumerates the layer operators the front end understands. Only the
// compute-intensive kinds (Conv, Linear, GEMM) are offloaded to the
// simulated accelerator; the rest run natively, exactly as Figure 2(b) of
// the paper describes.
type Kind int

const (
	Conv Kind = iota
	Linear
	GEMM // raw matrix multiply (used for transformer attention internals)
	MaxPool
	AvgPool
	ReLU
	BatchNorm
	Softmax
	Flatten
	Residual // element-wise add with the activation saved by SaveAs
	Concat   // channel concatenation with the activation saved by SaveAs
)

func (k Kind) String() string {
	switch k {
	case Conv:
		return "Conv"
	case Linear:
		return "Linear"
	case GEMM:
		return "GEMM"
	case MaxPool:
		return "MaxPool"
	case AvgPool:
		return "AvgPool"
	case ReLU:
		return "ReLU"
	case BatchNorm:
		return "BatchNorm"
	case Softmax:
		return "Softmax"
	case Flatten:
		return "Flatten"
	case Residual:
		return "Residual"
	case Concat:
		return "Concat"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Offloaded reports whether this layer kind is compute-intensive enough to
// be sent to the simulated accelerator rather than run natively.
func (k Kind) Offloaded() bool { return k == Conv || k == Linear || k == GEMM }

// Class is the paper's layer-type taxonomy from Table I: Convolution (C),
// Factorized Convolution (FC), Squeeze Convolution (SC), Expand Convolution
// (EC), Linear (L), Transformer (TR), Residual Function (RF).
type Class string

const (
	ClassC  Class = "C"
	ClassFC Class = "FC"
	ClassSC Class = "SC"
	ClassEC Class = "EC"
	ClassL  Class = "L"
	ClassTR Class = "TR"
	ClassRF Class = "RF"
	ClassNA Class = "-" // non-offloaded helper layers
)

// PoolShape describes a pooling window.
type PoolShape struct {
	Window, Stride, Padding int
}

// Out returns the output extent (x+2·Padding−Window)/Stride + 1 of the
// window sliding over an input extent x. It rejects a window that overhangs
// the padded input — integer division truncates toward zero, so the formula
// alone would give such a window one output — and a padding of a whole
// window or more, which would leave an output whose window holds padding
// only.
func (p PoolShape) Out(x int) (int, error) {
	switch {
	case p.Window <= 0 || p.Stride <= 0 || p.Padding < 0:
		return 0, fmt.Errorf("pool %+v: window and stride must be positive, padding non-negative", p)
	case p.Padding >= p.Window:
		return 0, fmt.Errorf("pool %+v: padding must be smaller than the window", p)
	case p.Window > x+2*p.Padding:
		return 0, fmt.Errorf("pool window %d exceeds feature map %d (padding %d)", p.Window, x, p.Padding)
	}
	return (x+2*p.Padding-p.Window)/p.Stride + 1, nil
}

// Layer is one operator in a model graph. The graph is a list with optional
// named skip connections, which is enough for all seven models of Table I.
type Layer struct {
	Name  string
	Kind  Kind
	Class Class

	// Conv parameters (Kind == Conv).
	Conv tensor.ConvShape

	// Linear parameters (Kind == Linear): output = W(Out×In) · input.
	// Batch is the number of input vectors (sequence length for BERT);
	// zero means 1.
	In, Out, Batch int

	// GEMM parameters (Kind == GEMM): M×K times K×N. GEMM layers have no
	// trained weights; both operands are activations (transformer
	// attention), so the B operand is taken from the running activation.
	M, N, K int

	// Pool parameters.
	Pool PoolShape

	// SaveAs, when non-empty, stores this layer's output under the given
	// key for a later Residual layer.
	SaveAs string
	// SkipFrom names the stored activation a Residual layer adds.
	SkipFrom string
	// Detached marks a side-branch layer: it reads the current activation
	// and stores its output under SaveAs, but the main-chain activation
	// passes through unchanged (used for residual projection shortcuts and
	// detection heads).
	Detached bool
}

// MACs returns the dense multiply-accumulate count of the layer (0 for
// non-offloaded kinds).
func (l *Layer) MACs() int64 {
	switch l.Kind {
	case Conv:
		return l.Conv.MACs()
	case Linear:
		b := l.Batch
		if b == 0 {
			b = 1
		}
		return int64(l.In) * int64(l.Out) * int64(b)
	case GEMM:
		return int64(l.M) * int64(l.N) * int64(l.K)
	default:
		return 0
	}
}

// GEMMDims returns the M, N, K of the GEMM this layer lowers to (per group
// for convolutions). It panics for non-offloaded kinds.
func (l *Layer) GEMMDims() (m, n, k int) {
	switch l.Kind {
	case Conv:
		return l.Conv.GEMMDims()
	case Linear:
		b := l.Batch
		if b == 0 {
			b = 1
		}
		return l.Out, b, l.In
	case GEMM:
		return l.M, l.N, l.K
	default:
		panic(fmt.Sprintf("dnn: layer %q of kind %v has no GEMM lowering", l.Name, l.Kind))
	}
}

// Model is an ordered layer list plus the metadata of Table I.
type Model struct {
	Name     string
	Short    string // the single-letter tag used in the figures (M, S, A, R, V, S-M, B)
	Domain   string
	Sparsity float64 // target weight sparsity after pruning, from Table I
	InputC   int     // input channels (image models) — 0 for BERT
	InputXY  int     // input spatial size (square) — 0 for BERT
	SeqLen   int     // sequence length (BERT)
	Layers   []Layer
}

// OffloadedLayers returns the layers that are sent to the accelerator.
func (m *Model) OffloadedLayers() []Layer {
	var out []Layer
	for _, l := range m.Layers {
		if l.Kind.Offloaded() {
			out = append(out, l)
		}
	}
	return out
}

// TotalMACs sums the dense MAC count over all offloaded layers.
func (m *Model) TotalMACs() int64 {
	var t int64
	for i := range m.Layers {
		t += m.Layers[i].MACs()
	}
	return t
}

// Validate checks that layer shapes chain together by running a shape-only
// forward pass.
func (m *Model) Validate() error {
	_, err := m.forwardShapes()
	return err
}

// forwardShapes propagates activation shapes through the graph.
func (m *Model) forwardShapes() ([]int, error) {
	var shape []int
	if m.SeqLen > 0 {
		shape = []int{m.SeqLen, hiddenOf(m)}
	} else {
		shape = []int{1, m.InputC, m.InputXY, m.InputXY}
	}
	saved := map[string][]int{}
	for i := range m.Layers {
		l := &m.Layers[i]
		out, err := l.outShape(shape)
		if err != nil {
			return nil, fmt.Errorf("dnn: model %s layer %d (%s): %w", m.Name, i, l.Name, err)
		}
		if l.Detached {
			if l.SaveAs == "" {
				return nil, fmt.Errorf("dnn: model %s layer %s: detached layer must set SaveAs", m.Name, l.Name)
			}
			saved[l.SaveAs] = out
			continue // main-chain shape unchanged
		}
		shape = out
		if l.SaveAs != "" {
			saved[l.SaveAs] = shape
		}
		switch l.Kind {
		case Residual:
			s, ok := saved[l.SkipFrom]
			if !ok {
				return nil, fmt.Errorf("dnn: model %s layer %s: residual source %q not saved", m.Name, l.Name, l.SkipFrom)
			}
			if !equalShape(s, shape) {
				return nil, fmt.Errorf("dnn: model %s layer %s: residual shape %v != %v", m.Name, l.Name, s, shape)
			}
		case Concat:
			s, ok := saved[l.SkipFrom]
			if !ok {
				return nil, fmt.Errorf("dnn: model %s layer %s: concat source %q not saved", m.Name, l.Name, l.SkipFrom)
			}
			if len(s) != 4 || len(shape) != 4 || s[0] != shape[0] || s[2] != shape[2] || s[3] != shape[3] {
				return nil, fmt.Errorf("dnn: model %s layer %s: concat shapes incompatible %v vs %v", m.Name, l.Name, s, shape)
			}
			shape = []int{shape[0], shape[1] + s[1], shape[2], shape[3]}
		}
	}
	return shape, nil
}

func hiddenOf(m *Model) int {
	// For sequence models the first offloaded layer defines the hidden size.
	for i := range m.Layers {
		if m.Layers[i].Kind == Linear {
			return m.Layers[i].In
		}
	}
	return 1
}

func (l *Layer) outShape(in []int) ([]int, error) {
	switch l.Kind {
	case Conv:
		cs := l.Conv
		if err := cs.Validate(); err != nil {
			return nil, err
		}
		if len(in) != 4 || in[1] != cs.C || in[2] != cs.X || in[3] != cs.Y {
			return nil, fmt.Errorf("conv expects input (N,%d,%d,%d), got %v", cs.C, cs.X, cs.Y, in)
		}
		return []int{in[0], cs.K, cs.OutX(), cs.OutY()}, nil
	case Linear:
		n := prod(in)
		if n%l.In != 0 {
			return nil, fmt.Errorf("linear expects multiple of %d inputs, got %v", l.In, in)
		}
		return []int{n / l.In, l.Out}, nil
	case GEMM:
		return []int{l.M, l.N}, nil
	case MaxPool, AvgPool:
		if len(in) != 4 {
			return nil, fmt.Errorf("pool expects rank-4 input, got %v", in)
		}
		ox, err := l.Pool.Out(in[2])
		if err != nil {
			return nil, err
		}
		oy, err := l.Pool.Out(in[3])
		if err != nil {
			return nil, err
		}
		return []int{in[0], in[1], ox, oy}, nil
	case Flatten:
		return []int{1, prod(in)}, nil
	case ReLU, BatchNorm, Softmax, Residual, Concat:
		// Residual and Concat are completed by forwardShapes / the
		// executor, which have access to the saved activations.
		return in, nil
	default:
		return nil, fmt.Errorf("unknown layer kind %v", l.Kind)
	}
}

func prod(s []int) int {
	p := 1
	for _, d := range s {
		p *= d
	}
	return p
}

func equalShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
