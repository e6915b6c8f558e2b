package engine

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dnn"
	"repro/internal/tensor"
)

// signOrder is the comparison sort the integer-key sort replaced: positives
// first (descending), then negatives (most negative first), stable under
// sort.Stable.
type signOrder snapeaFilter

func (f signOrder) Len() int { return len(f.weights) }
func (f signOrder) Less(a, b int) bool {
	pa, pb := f.weights[a] > 0, f.weights[b] > 0
	if pa != pb {
		return pa
	}
	if pa {
		return f.weights[a] > f.weights[b]
	}
	return f.weights[a] < f.weights[b]
}
func (f signOrder) Swap(a, b int) {
	f.weights[a], f.weights[b] = f.weights[b], f.weights[a]
	f.taps[a], f.taps[b] = f.taps[b], f.taps[a]
}

// refSNAPEAFilters is buildSNAPEAFilters as it stood before the key sort:
// taps decoded by division, one filter at a time, sort.Stable(signOrder).
func refSNAPEAFilters(w *tensor.Tensor, cs tensor.ConvShape, signSort bool) []snapeaFilter {
	window := cs.C / cs.G * cs.R * cs.S
	filters := make([]snapeaFilter, cs.K)
	for k := range filters {
		var f snapeaFilter
		for off, v := range w.Data()[k*window : (k+1)*window] {
			if v != 0 {
				c, r, s := off/(cs.R*cs.S), off/cs.S%cs.R, off%cs.S
				f.weights = append(f.weights, v)
				f.taps = append(f.taps, snapeaTap{int32(r), int32(s), int32((c*cs.X+r)*cs.Y + s)})
			}
		}
		if signSort {
			sort.Stable(signOrder(f))
		}
		f.negFrom = len(f.weights)
		for i, v := range f.weights {
			if v < 0 {
				f.negFrom = i
				break
			}
		}
		filters[k] = f
	}
	return filters
}

// TestSignSortMatchesStable holds the integer-key reorder to
// sort.Stable(signOrder) weight for weight (bit-equal), tap for tap, with
// the same negFrom, on filters built to stress it: ties, ±Inf, subnormals,
// single-signed, one-weight and empty filters, and seeded random ones.
func TestSignSortMatchesStable(t *testing.T) {
	inf := float32(math.Inf(1))
	sub := math.Float32frombits(1) // smallest subnormal
	special := []float32{inf, -inf, sub, -sub, math.Float32frombits(0x007FFFFF), -math.MaxFloat32, math.MaxFloat32, 1, -1, 0}
	rng := dnn.NewRNG(7)
	pick := func(vals []float32) float32 { return vals[rng.Uint64()%uint64(len(vals))] }

	cs := tensor.ConvShape{R: 3, S: 2, C: 8, G: 2, K: 16, N: 1, X: 5, Y: 4, Stride: 1}
	window := cs.C / cs.G * cs.R * cs.S
	fill := []struct {
		name string
		gen  func(i int) float32
	}{
		{"ties", func(int) float32 { return pick([]float32{-2, -1, 0, 1, 2}) }},
		{"all-equal", func(int) float32 { return 0.5 }},
		{"specials", func(int) float32 { return pick(special) }},
		{"all-positive", func(int) float32 { return float32(math.Abs(rng.Normal())) + sub }},
		{"all-negative", func(int) float32 { return -float32(math.Abs(rng.Normal())) - sub }},
		{"one-weight", func(i int) float32 {
			if i == window/2 {
				return -3
			}
			return 0
		}},
		{"one-positive-last", func(i int) float32 {
			if i == window-1 {
				return 4
			}
			return 0
		}},
		{"empty", func(int) float32 { return 0 }},
		{"normal", func(int) float32 { return float32(rng.Normal()) }},
		{"sparse-normal", func(int) float32 {
			if rng.Uint64()%4 != 0 {
				return 0
			}
			return float32(rng.Normal())
		}},
	}
	for trial := 0; trial < 8; trial++ {
		w := tensor.New(cs.K, cs.C/cs.G, cs.R, cs.S)
		var kinds []string
		for k := 0; k < cs.K; k++ {
			f := fill[(k+trial)%len(fill)]
			kinds = append(kinds, f.name)
			for i, d := 0, w.Data()[k*window:(k+1)*window]; i < len(d); i++ {
				d[i] = f.gen(i)
			}
		}
		for _, signSort := range []bool{true, false} {
			t.Run(fmt.Sprintf("trial%d/sort=%v", trial, signSort), func(t *testing.T) {
				got := buildSNAPEAFilters(w, cs, signSort)
				want := refSNAPEAFilters(w, cs, signSort)
				for k := range want {
					g, r := got[k], want[k]
					if len(g.weights) != len(r.weights) || g.negFrom != r.negFrom {
						t.Fatalf("filter %d (%s): %d weights, negFrom %d; want %d, %d",
							k, kinds[k], len(g.weights), g.negFrom, len(r.weights), r.negFrom)
					}
					for i := range r.weights {
						if math.Float32bits(g.weights[i]) != math.Float32bits(r.weights[i]) {
							t.Fatalf("filter %d (%s) weight %d = %v, want %v", k, kinds[k], i, g.weights[i], r.weights[i])
						}
					}
					if len(r.taps) > 0 && !reflect.DeepEqual(g.taps, r.taps) {
						t.Fatalf("filter %d (%s) taps\n got %v\nwant %v", k, kinds[k], g.taps, r.taps)
					}
				}
			})
		}
	}
}
