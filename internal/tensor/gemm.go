package tensor

import "fmt"

// MatMul computes C = A × B for A of shape (M,K) and B of shape (K,N).
// It is the functional reference against which simulated executions are
// validated.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("tensor: MatMul requires rank-2 operands, got %v × %v", a.shape, b.shape)
	}
	m, k := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		return nil, fmt.Errorf("tensor: MatMul inner dims differ: %v × %v", a.shape, b.shape)
	}
	c := New(m, n)
	ad, bd, cd := a.data, b.data, c.data
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
	return c, nil
}

// ConvShape describes a convolution in STONNE's seven-parameter layer
// nomenclature: Layer(R, S, C, G, K, N, X', Y'). X and Y are the input
// spatial dimensions from which X' and Y' derive.
type ConvShape struct {
	R, S    int // filter rows, columns
	C       int // input channels (total, across all groups)
	G       int // groups (factorized convolutions have G == C)
	K       int // filters (total, across all groups)
	N       int // batch
	X, Y    int // input rows, columns
	Stride  int
	Padding int
}

// OutX returns X', the number of output rows.
func (cs ConvShape) OutX() int { return (cs.X+2*cs.Padding-cs.R)/cs.Stride + 1 }

// OutY returns Y', the number of output columns.
func (cs ConvShape) OutY() int { return (cs.Y+2*cs.Padding-cs.S)/cs.Stride + 1 }

// Validate reports a descriptive error for an inconsistent shape.
func (cs ConvShape) Validate() error {
	switch {
	case cs.R <= 0 || cs.S <= 0 || cs.C <= 0 || cs.K <= 0 || cs.N <= 0 || cs.X <= 0 || cs.Y <= 0:
		return fmt.Errorf("tensor: conv shape has non-positive dimension: %+v", cs)
	case cs.G <= 0:
		return fmt.Errorf("tensor: conv shape needs G >= 1, got %d", cs.G)
	case cs.C%cs.G != 0:
		return fmt.Errorf("tensor: channels %d not divisible by groups %d", cs.C, cs.G)
	case cs.K%cs.G != 0:
		return fmt.Errorf("tensor: filters %d not divisible by groups %d", cs.K, cs.G)
	case cs.Stride <= 0:
		return fmt.Errorf("tensor: stride must be positive, got %d", cs.Stride)
	case cs.Padding < 0:
		return fmt.Errorf("tensor: padding must be non-negative, got %d", cs.Padding)
	case cs.R > cs.X+2*cs.Padding || cs.S > cs.Y+2*cs.Padding:
		// Must be checked explicitly: Go's truncated division makes the
		// OutX/OutY formula report 1 (not <= 0) when the window overhangs
		// the padded input, since (X+2P-R)/Stride rounds -2/3 to 0.
		return fmt.Errorf("tensor: filter %dx%d exceeds padded input %dx%d: %+v",
			cs.R, cs.S, cs.X+2*cs.Padding, cs.Y+2*cs.Padding, cs)
	case cs.OutX() <= 0 || cs.OutY() <= 0:
		return fmt.Errorf("tensor: conv shape yields empty output: %+v", cs)
	}
	return nil
}

// GEMMDims returns the (M, N, K) of the GEMM that this convolution lowers to
// via im2col, per group: M = K/G filters, N = N·X'·Y' output pixels,
// K = R·S·C/G dot-product length.
func (cs ConvShape) GEMMDims() (m, n, k int) {
	return cs.K / cs.G, cs.N * cs.OutX() * cs.OutY(), cs.R * cs.S * cs.C / cs.G
}

// MACs returns the total multiply-accumulate count of the dense convolution.
func (cs ConvShape) MACs() int64 {
	m, n, k := cs.GEMMDims()
	return int64(cs.G) * int64(m) * int64(n) * int64(k)
}

// Im2Col lowers the input tensor of shape (N, C, X, Y) into the column
// matrix of shape (R·S·Cg, N·X'·Y') for one group g, so that a convolution
// becomes filterMatrix(Kg × R·S·Cg) × columns. Cg = C/G and Kg = K/G.
func Im2Col(in *Tensor, cs ConvShape, g int) (*Tensor, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	if in.Rank() != 4 || in.Dim(0) != cs.N || in.Dim(1) != cs.C || in.Dim(2) != cs.X || in.Dim(3) != cs.Y {
		return nil, fmt.Errorf("tensor: Im2Col input %v does not match conv shape %+v", in.shape, cs)
	}
	if g < 0 || g >= cs.G {
		return nil, fmt.Errorf("tensor: group %d out of range [0,%d)", g, cs.G)
	}
	cg := cs.C / cs.G
	xo, yo := cs.OutX(), cs.OutY()
	rows := cs.R * cs.S * cg
	cols := cs.N * xo * yo
	plane := cs.X * cs.Y
	out := New(rows, cols) // zero: padding taps are never written
	row := 0
	for c := 0; c < cg; c++ {
		for r := 0; r < cs.R; r++ {
			for s := 0; s < cs.S; s++ {
				dst := out.data[row*cols:][:cols]
				row++
				col := 0
				for n := 0; n < cs.N; n++ {
					src := in.data[(n*cs.C+g*cg+c)*plane:][:plane]
					for ox := 0; ox < xo; ox++ {
						ix := ox*cs.Stride + r - cs.Padding
						if ix < 0 || ix >= cs.X {
							col += yo
							continue
						}
						for oy := 0; oy < yo; oy++ {
							if iy := oy*cs.Stride + s - cs.Padding; iy >= 0 && iy < cs.Y {
								dst[col] = src[ix*cs.Y+iy]
							}
							col++
						}
					}
				}
			}
		}
	}
	return out, nil
}

// FilterMatrix flattens the weight tensor of shape (K, C/G, R, S) into the
// (Kg × R·S·Cg) matrix for group g with the same row layout Im2Col produces
// (channel-major, then filter row, then filter column).
func FilterMatrix(w *Tensor, cs ConvShape, g int) (*Tensor, error) {
	cg := cs.C / cs.G
	kg := cs.K / cs.G
	if w.Rank() != 4 || w.Dim(0) != cs.K || w.Dim(1) != cg || w.Dim(2) != cs.R || w.Dim(3) != cs.S {
		return nil, fmt.Errorf("tensor: FilterMatrix weights %v do not match conv shape %+v", w.shape, cs)
	}
	if g < 0 || g >= cs.G {
		return nil, fmt.Errorf("tensor: group %d out of range [0,%d)", g, cs.G)
	}
	// Group g's filters are one contiguous block of the (K, Cg, R, S) weights,
	// already in row order.
	cols := cs.R * cs.S * cg
	out := New(kg, cols)
	copy(out.data, w.data[g*kg*cols:(g+1)*kg*cols])
	return out, nil
}

// Conv2D computes the dense reference convolution producing a tensor of
// shape (N, K, X', Y'). It lowers each group with im2col and multiplies.
func Conv2D(in, w *Tensor, cs ConvShape) (*Tensor, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	xo, yo := cs.OutX(), cs.OutY()
	out := New(cs.N, cs.K, xo, yo)
	kg := cs.K / cs.G
	for g := 0; g < cs.G; g++ {
		cols, err := Im2Col(in, cs, g)
		if err != nil {
			return nil, err
		}
		fm, err := FilterMatrix(w, cs, g)
		if err != nil {
			return nil, err
		}
		prod, err := MatMul(fm, cols)
		if err != nil {
			return nil, err
		}
		// prod is (Kg × N·X'·Y'); scatter back into NCHW.
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
	return out, nil
}
