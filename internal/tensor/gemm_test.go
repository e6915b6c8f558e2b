package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// refIm2Col and refFilterMatrix are the lowerings as they stood before they
// indexed the backing arrays directly: every element through At, in output
// column (Im2Col) or filter (FilterMatrix) order.
func refIm2Col(in *Tensor, cs ConvShape, g int) *Tensor {
	cg := cs.C / cs.G
	xo, yo := cs.OutX(), cs.OutY()
	cols := cs.N * xo * yo
	out := New(cs.R*cs.S*cg, cols)
	col := 0
	for n := 0; n < cs.N; n++ {
		for ox := 0; ox < xo; ox++ {
			for oy := 0; oy < yo; oy++ {
				row := 0
				for c := 0; c < cg; c++ {
					for r := 0; r < cs.R; r++ {
						ix := ox*cs.Stride + r - cs.Padding
						for s := 0; s < cs.S; s++ {
							iy := oy*cs.Stride + s - cs.Padding
							var v float32
							if ix >= 0 && ix < cs.X && iy >= 0 && iy < cs.Y {
								v = in.At(n, g*cg+c, ix, iy)
							}
							out.Set(v, row, col)
							row++
						}
					}
				}
				col++
			}
		}
	}
	return out
}

func refFilterMatrix(w *Tensor, cs ConvShape, g int) *Tensor {
	cg, kg := cs.C/cs.G, cs.K/cs.G
	out := New(kg, cs.R*cs.S*cg)
	for kf := 0; kf < kg; kf++ {
		col := 0
		for c := 0; c < cg; c++ {
			for r := 0; r < cs.R; r++ {
				for s := 0; s < cs.S; s++ {
					out.Set(w.At(g*kg+kf, c, r, s), kf, col)
					col++
				}
			}
		}
	}
	return out
}

// TestLoweringMatchesAtReference pins the direct-index Im2Col and the
// block-copy FilterMatrix to their At-based references, bit for bit, over
// strided, padded, grouped and batched shapes.
func TestLoweringMatchesAtReference(t *testing.T) {
	shapes := []ConvShape{
		{R: 3, S: 3, C: 4, G: 1, K: 5, N: 1, X: 6, Y: 7, Stride: 1, Padding: 1},
		{R: 3, S: 2, C: 6, G: 3, K: 9, N: 2, X: 7, Y: 5, Stride: 2, Padding: 1},
		{R: 5, S: 5, C: 2, G: 2, K: 4, N: 3, X: 5, Y: 5, Stride: 3, Padding: 2},
		{R: 1, S: 1, C: 8, G: 8, K: 8, N: 2, X: 4, Y: 3, Stride: 1},
		{R: 2, S: 3, C: 3, G: 1, K: 2, N: 1, X: 2, Y: 9, Stride: 2, Padding: 3},
	}
	for i, cs := range shapes {
		t.Run(fmt.Sprintf("%d", i), func(t *testing.T) {
			if err := cs.Validate(); err != nil {
				t.Fatal(err)
			}
			in := New(cs.N, cs.C, cs.X, cs.Y)
			for j, d := 0, in.Data(); j < len(d); j++ {
				d[j] = float32(j) - 0.5
			}
			w := New(cs.K, cs.C/cs.G, cs.R, cs.S)
			for j, d := 0, w.Data(); j < len(d); j++ {
				d[j] = -float32(j) * 0.25
			}
			for g := 0; g < cs.G; g++ {
				cols, err := Im2Col(in, cs, g)
				if err != nil {
					t.Fatal(err)
				}
				assertBitEqual(t, fmt.Sprintf("Im2Col g=%d", g), cols, refIm2Col(in, cs, g))
				fm, err := FilterMatrix(w, cs, g)
				if err != nil {
					t.Fatal(err)
				}
				assertBitEqual(t, fmt.Sprintf("FilterMatrix g=%d", g), fm, refFilterMatrix(w, cs, g))
			}
		})
	}
}

func assertBitEqual(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if !slices.Equal(got.Shape(), want.Shape()) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, v := range got.Data() {
		if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, v, want.Data()[i])
		}
	}
}
