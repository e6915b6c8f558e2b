package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndIndexing(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 || a.Rank() != 3 || a.Dim(1) != 3 {
		t.Fatalf("bad metadata: len=%d rank=%d dim1=%d", a.Len(), a.Rank(), a.Dim(1))
	}
	a.Set(7, 1, 2, 3)
	if got := a.At(1, 2, 3); got != 7 {
		t.Errorf("At = %v, want 7", got)
	}
	if got := a.Data()[1*12+2*4+3]; got != 7 {
		t.Errorf("row-major layout broken: %v", got)
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero dimension")
		}
	}()
	New(2, 0, 3)
}

func TestFromSliceErrors(t *testing.T) {
	if _, err := FromSlice(make([]float32, 5), 2, 3); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := FromSlice(nil, -1); err == nil {
		t.Error("negative dim accepted")
	}
	got, err := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if err != nil || got.At(1, 1) != 4 {
		t.Errorf("FromSlice: %v %v", got, err)
	}
}

func TestReshape(t *testing.T) {
	a := New(2, 6)
	a.Set(5, 1, 2)
	b, err := a.Reshape(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.At(2, 0) != 5 { // same backing storage, offset 8
		t.Errorf("reshape lost data: %v", b.At(2, 0))
	}
	if _, err := a.Reshape(5, 5); err == nil {
		t.Error("bad reshape accepted")
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	a := New(3, 5)
	for i := range a.data {
		a.data[i] = float32(i)
	}
	at := Transpose(a)
	if at.Dim(0) != 5 || at.Dim(1) != 3 {
		t.Fatalf("transpose shape %v, want [5 3]", at.Shape())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if at.At(j, i) != a.At(i, j) {
				t.Fatalf("Transpose(a)[%d,%d] = %v, want a[%d,%d] = %v", j, i, at.At(j, i), i, j, a.At(i, j))
			}
		}
	}
	if d, err := MaxAbsDiff(Transpose(at), a); err != nil || d != 0 {
		t.Errorf("transposing twice is not the identity (diff %v, err %v)", d, err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := New(4)
	a.Set(1, 0)
	b := a.Clone()
	b.Set(9, 0)
	if a.At(0) != 1 {
		t.Error("clone aliases original")
	}
}

func TestNNZSparsityApply(t *testing.T) {
	a := New(4)
	copy(a.Data(), []float32{0, 1, 0, -2})
	if a.NNZ() != 2 {
		t.Errorf("NNZ = %d", a.NNZ())
	}
	if s := a.Sparsity(); s != 0.5 {
		t.Errorf("Sparsity = %v", s)
	}
	a.Apply(func(v float32) float32 { return v * 2 })
	if a.At(3) != -4 {
		t.Errorf("Apply failed: %v", a.At(3))
	}
}

func TestMatMulSmall(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b, _ := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{19, 22, 43, 50}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Errorf("C[%d] = %v, want %v", i, v, want[i])
		}
	}
	if _, err := MatMul(a, New(3, 2)); err == nil {
		t.Error("inner-dim mismatch accepted")
	}
}

// Property: (A×B)×C == A×(B×C) within float tolerance.
func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newQuickRNG(seed)
		a := randQuick(r, 3, 4)
		b := randQuick(r, 4, 2)
		c := randQuick(r, 2, 5)
		ab, _ := MatMul(a, b)
		left, _ := MatMul(ab, c)
		bc, _ := MatMul(b, c)
		right, _ := MatMul(a, bc)
		d, _ := MaxAbsDiff(left, right)
		return d < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: multiplying by identity preserves the matrix.
func TestMatMulIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newQuickRNG(seed)
		a := randQuick(r, 5, 5)
		id := New(5, 5)
		for i := 0; i < 5; i++ {
			id.Set(1, i, i)
		}
		got, _ := MatMul(a, id)
		d, _ := MaxAbsDiff(got, a)
		return d < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConvShapeValidate(t *testing.T) {
	good := ConvShape{R: 3, S: 3, C: 4, G: 1, K: 8, N: 1, X: 8, Y: 8, Stride: 1, Padding: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid shape rejected: %v", err)
	}
	bad := []ConvShape{
		{R: 3, S: 3, C: 4, G: 3, K: 8, N: 1, X: 8, Y: 8, Stride: 1}, // C % G != 0
		{R: 3, S: 3, C: 4, G: 1, K: 8, N: 1, X: 8, Y: 8, Stride: 0}, // stride
		{R: 9, S: 9, C: 4, G: 1, K: 8, N: 1, X: 4, Y: 4, Stride: 1}, // empty output
		{R: 3, S: 3, C: 4, G: 1, K: 8, N: 1, X: 8, Y: 8, Stride: 1, Padding: -1},
	}
	for i, cs := range bad {
		if err := cs.Validate(); err == nil {
			t.Errorf("bad shape %d accepted: %+v", i, cs)
		}
	}
}

func TestConvShapeDims(t *testing.T) {
	cs := ConvShape{R: 3, S: 3, C: 6, G: 1, K: 4, N: 1, X: 7, Y: 7, Stride: 1}
	if cs.OutX() != 5 || cs.OutY() != 5 {
		t.Errorf("out dims %dx%d", cs.OutX(), cs.OutY())
	}
	m, n, k := cs.GEMMDims()
	if m != 4 || n != 25 || k != 54 {
		t.Errorf("GEMM dims %d %d %d", m, n, k)
	}
	if cs.MACs() != 4*25*54 {
		t.Errorf("MACs = %d", cs.MACs())
	}
}

// Property: Conv2D equals the explicit 7-loop convolution.
func TestConv2DMatchesDirectProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newQuickRNG(seed)
		cs := ConvShape{R: 3, S: 3, C: 2, G: 1, K: 3, N: 1, X: 6, Y: 6, Stride: 1, Padding: 1}
		in := randQuick(r, 1*cs.C*cs.X*cs.Y)
		inT, _ := in.Reshape(1, cs.C, cs.X, cs.Y)
		w := randQuick(r, cs.K*cs.C*cs.R*cs.S)
		wT, _ := w.Reshape(cs.K, cs.C, cs.R, cs.S)
		got, err := Conv2D(inT, wT, cs)
		if err != nil {
			return false
		}
		want := directConv(inT, wT, cs)
		d, _ := MaxAbsDiff(got, want)
		return d < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestConv2DGrouped(t *testing.T) {
	cs := ConvShape{R: 3, S: 3, C: 4, G: 4, K: 4, N: 1, X: 5, Y: 5, Stride: 1, Padding: 1}
	r := newQuickRNG(77)
	in := randQuick(r, cs.C*cs.X*cs.Y)
	inT, _ := in.Reshape(1, cs.C, cs.X, cs.Y)
	w := randQuick(r, cs.K*1*cs.R*cs.S)
	wT, _ := w.Reshape(cs.K, 1, cs.R, cs.S)
	got, err := Conv2D(inT, wT, cs)
	if err != nil {
		t.Fatal(err)
	}
	want := directConv(inT, wT, cs)
	if d, _ := MaxAbsDiff(got, want); d > 1e-3 {
		t.Errorf("grouped conv differs by %v", d)
	}
}

// directConv is an independent 7-loop reference implementation.
func directConv(in, w *Tensor, cs ConvShape) *Tensor {
	xo, yo := cs.OutX(), cs.OutY()
	out := New(cs.N, cs.K, xo, yo)
	cg := cs.C / cs.G
	kg := cs.K / cs.G
	for n := 0; n < cs.N; n++ {
		for k := 0; k < cs.K; k++ {
			g := k / kg
			for ox := 0; ox < xo; ox++ {
				for oy := 0; oy < yo; oy++ {
					var acc float32
					for c := 0; c < cg; c++ {
						for r := 0; r < cs.R; r++ {
							for s := 0; s < cs.S; s++ {
								ix := ox*cs.Stride + r - cs.Padding
								iy := oy*cs.Stride + s - cs.Padding
								if ix < 0 || ix >= cs.X || iy < 0 || iy >= cs.Y {
									continue
								}
								acc += in.At(n, g*cg+c, ix, iy) * w.At(k, c, r, s)
							}
						}
					}
					out.Set(acc, n, k, ox, oy)
				}
			}
		}
	}
	return out
}

// quickRNG is a tiny local generator so property tests are hermetic.
type quickRNG struct{ s uint64 }

func newQuickRNG(seed int64) *quickRNG { return &quickRNG{s: uint64(seed)*2654435761 + 1} }

func (r *quickRNG) next() float32 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return float32(int64(r.s%2000)-1000) / 500
}

func randQuick(r *quickRNG, shape ...int) *Tensor {
	t := New(shape...)
	for i, d := 0, t.Data(); i < len(d); i++ {
		d[i] = r.next()
	}
	return t
}

func TestMaxAbsDiff(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2}, 2)
	b, _ := FromSlice([]float32{1, 5}, 2)
	d, err := MaxAbsDiff(a, b)
	if err != nil || math.Abs(d-3) > 1e-9 {
		t.Errorf("d=%v err=%v", d, err)
	}
	if _, err := MaxAbsDiff(a, New(3)); err == nil {
		t.Error("shape mismatch accepted")
	}
}
