package dnn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func tinyModel(t *testing.T) (*Model, *Weights, *tensor.Tensor) {
	t.Helper()
	m := &Model{
		Name: "tiny", Short: "T", InputC: 2, InputXY: 6,
		Layers: []Layer{
			{Name: "conv", Kind: Conv, Conv: tensor.ConvShape{
				R: 3, S: 3, C: 2, G: 1, K: 4, N: 1, X: 6, Y: 6, Stride: 1, Padding: 1}},
			{Name: "relu", Kind: ReLU},
			{Name: "pool", Kind: MaxPool, Pool: PoolShape{Window: 2, Stride: 2}},
			{Name: "flat", Kind: Flatten},
			{Name: "fc", Kind: Linear, In: 4 * 3 * 3, Out: 5},
			{Name: "sm", Kind: Softmax},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	w := InitWeights(m, 1)
	return m, w, RandomInput(m, 2)
}

func TestExecutorForward(t *testing.T) {
	m, w, in := tinyModel(t)
	e := &Executor{Model: m, Weights: w, LayerOutputs: map[string]*tensor.Tensor{}}
	out, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 5 {
		t.Fatalf("output shape %v", out.Shape())
	}
	// Softmax output sums to 1.
	var sum float64
	for _, v := range out.Data() {
		if v < 0 || v > 1 {
			t.Errorf("softmax value out of range: %v", v)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Errorf("softmax sum %v", sum)
	}
	for _, name := range []string{"conv", "relu", "pool", "fc"} {
		if e.LayerOutputs[name] == nil {
			t.Errorf("layer output %s not recorded", name)
		}
	}
}

// countingOffloader verifies the executor routes exactly the
// compute-intensive layers through the offload seam.
type countingOffloader struct{ names []string }

func (c *countingOffloader) RunLayer(l *Layer, in, w *tensor.Tensor) (*tensor.Tensor, error) {
	c.names = append(c.names, l.Name)
	// Delegate to the native implementations for correctness.
	switch l.Kind {
	case Conv:
		return tensor.Conv2D(in, w, l.Conv)
	case Linear:
		return LinearForward(l, in, w)
	case GEMM:
		a, b, err := GEMMOperands(l, in)
		if err != nil {
			return nil, err
		}
		return tensor.MatMul(a, b)
	}
	return nil, nil
}

func TestExecutorOffloadSeam(t *testing.T) {
	m, w, in := tinyModel(t)
	native, err := (&Executor{Model: m, Weights: w}).Run(in)
	if err != nil {
		t.Fatal(err)
	}
	off := &countingOffloader{}
	got, err := (&Executor{Model: m, Weights: w, Offload: off}).Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(off.names) != 2 || off.names[0] != "conv" || off.names[1] != "fc" {
		t.Errorf("offloaded layers %v", off.names)
	}
	if d, _ := tensor.MaxAbsDiff(got, native); d > 1e-5 {
		t.Errorf("offloaded result differs by %v", d)
	}
}

func TestResidualAndConcatExecution(t *testing.T) {
	// ResNet-50 and SqueezeNet exercise Residual/Concat/Detached end to
	// end at a small scale.
	for _, mk := range []func() *Model{ResNet50, SqueezeNet} {
		full := mk()
		m, err := ScaleSpatial(full, 16)
		if err != nil {
			t.Fatal(err)
		}
		w := InitWeights(m, 3)
		e := &Executor{Model: m, Weights: w}
		out, err := e.Run(RandomInput(m, 4))
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if out.Len() == 0 {
			t.Fatalf("%s: empty output", m.Name)
		}
		for _, v := range out.Data() {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: non-finite output", m.Name)
			}
		}
	}
}

func TestBERTExecution(t *testing.T) {
	m, err := ScaleSpatial(BERT(), 8)
	if err != nil {
		t.Fatal(err)
	}
	w := InitWeights(m, 5)
	out, err := (&Executor{Model: m, Weights: w}).Run(RandomInput(m, 6))
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(out.Rank()-1) != 2 {
		t.Errorf("BERT output shape %v", out.Shape())
	}
}

func TestPruneReachesTarget(t *testing.T) {
	m, err := ScaleSpatial(AlexNet(), 4)
	if err != nil {
		t.Fatal(err)
	}
	w := InitWeights(m, 7)
	if err := w.Prune(0.78); err != nil {
		t.Fatal(err)
	}
	var nnz, total int
	for _, tt := range w.ByLayer {
		nnz += tt.NNZ()
		total += tt.Len()
	}
	got := 1 - float64(nnz)/float64(total)
	if math.Abs(got-0.78) > 0.01 {
		t.Errorf("global sparsity %.3f, want 0.78", got)
	}
	if err := w.Prune(1.5); err == nil {
		t.Error("target 1.5 accepted")
	}
	if err := w.Prune(0); err != nil {
		t.Error("no-op prune failed")
	}
}

func TestPruneCreatesPerFilterVariance(t *testing.T) {
	// The per-filter scale in InitWeights must yield non-uniform
	// per-filter non-zero counts under global pruning (Fig. 7b).
	m, err := ScaleSpatial(VGG16(), 8)
	if err != nil {
		t.Fatal(err)
	}
	w := InitWeights(m, 8)
	if err := w.Prune(0.9); err != nil {
		t.Fatal(err)
	}
	tt := w.ByLayer["conv3_1"]
	k := m.Layers[idxOf(t, m, "conv3_1")].Conv.K
	per := tt.Len() / k
	min, max := per+1, -1
	for r := 0; r < k; r++ {
		n := 0
		for c := 0; c < per; c++ {
			if tt.Data()[r*per+c] != 0 {
				n++
			}
		}
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max < min*2 {
		t.Errorf("per-filter nnz too uniform: min %d max %d", min, max)
	}
}

func idxOf(t *testing.T, m *Model, name string) int {
	t.Helper()
	for i := range m.Layers {
		if m.Layers[i].Name == name {
			return i
		}
	}
	t.Fatalf("layer %s not found", name)
	return -1
}

func TestSNAPEACutSafe(t *testing.T) {
	r := ResNet50()
	safe := SNAPEACutSafe(r)
	if safe["conv1"] != true { // conv1 → bn → relu
		t.Error("conv1 should be cut-safe")
	}
	if safe["res2_1_proj"] {
		t.Error("projection shortcut must not be cut")
	}
	if safe["res2_1_c"] {
		t.Error("pre-add conv must not be cut")
	}
	if !safe["res2_1_a"] || !safe["res2_1_b"] {
		t.Error("bottleneck a/b convs are relu-fed and should be cut-safe")
	}
	s := SqueezeNet()
	sq := SNAPEACutSafe(s)
	if !sq["fire2_expand3x3"] || !sq["fire2_expand1x1"] {
		t.Error("fire expand convs flow through concat to relu: cut-safe")
	}
	if !sq["fire2_squeeze"] {
		t.Error("squeeze conv feeds relu directly: cut-safe")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestGEMMOperandsReuseActivation(t *testing.T) {
	l := &Layer{Name: "scores", Kind: GEMM, M: 4, N: 4, K: 8}
	act := tensor.New(4, 8)
	for i, d := 0, act.Data(); i < len(d); i++ {
		d[i] = float32(i)
	}
	a, b, err := GEMMOperands(l, act)
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != 1 {
		t.Error("A operand is not the activation")
	}
	// B is actᵀ reshaped: act.Len() == K·N == 32 ✓.
	if b.Dim(0) != 8 || b.Dim(1) != 4 {
		t.Errorf("B shape %v", b.Shape())
	}
}

func TestPoolShapeOut(t *testing.T) {
	for _, tc := range []struct {
		p    PoolShape
		x    int
		want int // 0 = rejected
	}{
		{PoolShape{Window: 2, Stride: 2}, 4, 2},
		{PoolShape{Window: 3, Stride: 2, Padding: 1}, 2, 1},
		{PoolShape{Window: 3, Stride: 2}, 7, 3},
		{PoolShape{Window: 3, Stride: 2}, 2, 0},             // overhangs by one, less than a stride
		{PoolShape{Window: 2, Stride: 1, Padding: 2}, 2, 0}, // corner window is all padding
		{PoolShape{Window: 0, Stride: 1}, 2, 0},
		{PoolShape{Window: 2, Stride: 0}, 2, 0},
		{PoolShape{Window: 2, Stride: 1, Padding: -1}, 4, 0},
	} {
		got, err := tc.p.Out(tc.x)
		if (err == nil) != (tc.want > 0) || got != tc.want {
			t.Errorf("%+v over %d: %d, %v; want %d", tc.p, tc.x, got, err, tc.want)
		}
	}
}

// Every window PoolForward accepts holds at least one input element, so max
// pooling never reports -Inf and average pooling never divides by zero.
func TestPoolForwardHasNoEmptyWindow(t *testing.T) {
	act := tensor.New(1, 1, 3, 3)
	act.Apply(func(float32) float32 { return -5 })
	for _, p := range []PoolShape{{Window: 2, Stride: 2, Padding: 1}, {Window: 3, Stride: 3, Padding: 2}} {
		for _, isMax := range []bool{true, false} {
			out, err := PoolForward(act, p, isMax)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out.Data() {
				if v != -5 {
					t.Errorf("%+v max=%v: output %d = %v, want -5", p, isMax, i, v)
				}
			}
		}
	}
}
