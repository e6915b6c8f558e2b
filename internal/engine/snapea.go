package engine

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/comp/names"
	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// snapeaRunner is the SNAPEA-like composition (use case 2, Section VI-B):
// the dense back end extended with SnaPEA's data-dependent optimization.
// Filter weights are statically reordered by sign at "compile" time
// (positives first), an index table matches each reordered weight with its
// activation, and the accumulation logic performs a single-bit sign check
// on the running partial sum — once it drops to or below zero with only
// negative weights remaining, the output is inevitably zeroed by the
// following ReLU, so the rest of the computation and its memory accesses
// are cut off (exact mode).
//
// The microarchitecture is an output-stationary array of dot-product
// lanes: each of the MSSize processing elements owns one output neuron at
// a time and performs one MAC per cycle, picking up the next neuron from
// the work queue when it finishes or cuts.
type snapeaRunner struct {
	hw config.Hardware
}

// snapeaFilter is one filter's non-zero weights (sign-sorted for the
// convolutions) plus the index table locating each weight's activation.
type snapeaFilter struct {
	weights []float32
	taps    []snapeaTap
	negFrom int // first index whose weight is negative
}

// snapeaTap is one index-table entry, decoded at "compile" time: the
// weight's filter row and column, and the distance of its activation from
// the window origin in the (channel-major) input.
type snapeaTap struct{ r, s, delta int32 }

// buildSNAPEAFilters gathers each filter's non-zero weights (pruned weights
// are never mapped) with their index table. signSort applies SnaPEA's
// compile-time reordering; without it the weights keep reference (c, r, s)
// order. The filters' weights and taps are capped windows of one array each.
func buildSNAPEAFilters(w *tensor.Tensor, cs tensor.ConvShape, signSort bool) []snapeaFilter {
	window := cs.C / cs.G * cs.R * cs.S
	wd := w.Data()[:cs.K*window]
	nnz := 0
	for _, v := range wd {
		if v != 0 {
			nnz++
		}
	}
	weights := make([]float32, 0, nnz)
	taps := make([]snapeaTap, 0, nnz)
	// The index table entry of every window position, decoded once per
	// layer with running (c, r, s) counters.
	table := make([]snapeaTap, window)
	c, r, s := 0, 0, 0
	for off := range table {
		table[off] = snapeaTap{int32(r), int32(s), int32((c*cs.X+r)*cs.Y + s)}
		s++
		if s == cs.S {
			s, r = 0, r+1
			if r == cs.R {
				r, c = 0, c+1
			}
		}
	}
	// One filter's gather order, reused across filters: the window position
	// in the low 32 bits, under signKey when sign-sorting.
	keys := make([]uint64, 0, window)
	filters := make([]snapeaFilter, cs.K)
	for k := range filters {
		// Filter k's (c, r, s) window is contiguous.
		row := wd[k*window : (k+1)*window]
		keys = keys[:0]
		for off, v := range row {
			if v != 0 {
				key := uint64(off)
				if signSort {
					key |= signKey(v) << 32
				}
				keys = append(keys, key)
			}
		}
		if signSort {
			slices.Sort(keys)
		}
		lo := len(weights)
		for _, key := range keys {
			off := uint32(key)
			weights = append(weights, row[off])
			taps = append(taps, table[off])
		}
		hi := len(weights)
		f := snapeaFilter{weights: weights[lo:hi:hi], taps: taps[lo:hi:hi], negFrom: hi - lo}
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

// signKey ranks a weight in SnaPEA's order: positives first (descending),
// then negatives (most negative first) — the ordering that drops the
// partial sum fastest once the positive mass is consumed. The key is the
// sign bit over the complemented magnitude bits, so for non-NaN weights
// unsigned order is that order; a NaN weight has no defined place in it.
// Callers put the weight's window position in the low 32 bits, which keeps
// equal weights in reference order.
func signKey(v float32) uint64 {
	b := math.Float32bits(v)
	return uint64(b&0x80000000 | (0x7FFFFFFF - b&0x7FFFFFFF))
}

// snapeaPE is one dot-product lane.
type snapeaPE struct {
	active bool
	filter snapeaFilter // by value: one pointer chase fewer per MAC
	outIdx int
	// window origin: input row and column of filter tap (0, 0), and the
	// flat input index of that tap in the first channel of the filter's group
	x0, y0, base int
	pos          int
	psum         float32
}

// RunConv is the dense-dispatch target; without framework knowledge of
// the following layer it conservatively enables cutting, which is sound
// for conv+ReLU CNNs (the architecture's target domain).
func (r *snapeaRunner) RunConv(in, w *tensor.Tensor, cs tensor.ConvShape, layer string) (*tensor.Tensor, *stats.Run, error) {
	return runSNAPEAConv(&r.hw, in, w, cs, layer, true)
}

// runSNAPEAConv runs a convolution on the SNAPEA dot-product lanes. cut
// selects whether the early-termination logic is active (false models the
// paper's "Baseline", which is the same architecture without the negative
// detection logic). cut must only be enabled for layers whose output feeds
// a ReLU with non-negative inputs — the exact-mode soundness condition.
// It is a free function over the hardware configuration because the lane
// model applies to any fabric's multiplier budget: the SNAPEA-vs-Baseline
// comparison runs both variants on the same configuration.
func runSNAPEAConv(hw *config.Hardware, in, w *tensor.Tensor, cs tensor.ConvShape, layer string, cut bool) (*tensor.Tensor, *stats.Run, error) {
	if err := cs.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: %w", err, config.ErrRefused)
	}
	if cs.N != 1 {
		return nil, nil, fmt.Errorf("engine: SNAPEA models batch-1 inference, got N=%d: %w", cs.N, config.ErrRefused)
	}
	ctx := sim.NewCtx(hw)
	filters := buildSNAPEAFilters(w, cs, true)
	// The reordering table itself is read once per layer.
	var tableElems int
	for k := range filters {
		tableElems += len(filters[k].taps)
	}
	ctx.Counters.Add(names.GBMetaReads, uint64(tableElems))

	out, signChecks, cuts, savedMACs := runSNAPEALanes(ctx, filters, in, cs, cut)
	ctx.Counters.Add(names.SNAPEASignChecks, signChecks)
	ctx.Counters.Add(names.SNAPEACuts, cuts)
	ctx.Counters.Add(names.SNAPEASavedMACs, savedMACs)

	m, n, k := cs.GEMMDims()
	return out, ctx.Finish("CONV", layer, m, n, k), nil
}

// RunGEMM executes C = A×B on the same output-stationary dot-product
// lanes the convolutions use, as the 1×1 convolution it is: A rows are the
// filters (K=m, C=k), B columns the pixels (X=n, Y=1), both row-major as
// they stand, and lane assignment order (k, ox, oy) is (i, j). The
// sign-sorting/early-cut machinery stays off — SnaPEA applies it to
// convolutions only — so weights keep reference k order, and this is how
// both the SNAPEA and Baseline versions run the fully-connected layers.
func (sr *snapeaRunner) RunGEMM(A, B *tensor.Tensor, layer string) (*tensor.Tensor, *stats.Run, error) {
	m, k := A.Dim(0), A.Dim(1)
	n := B.Dim(1)
	cs := tensor.ConvShape{N: 1, C: k, X: n, Y: 1, K: m, R: 1, S: 1, G: 1, Stride: 1}
	w, err := A.Reshape(m, k, 1, 1)
	if err != nil {
		return nil, nil, err
	}
	ctx := sim.NewCtx(&sr.hw)
	out, _, _, _ := runSNAPEALanes(ctx, buildSNAPEAFilters(w, cs, false), B, cs, false)
	C, err := out.Reshape(m, n)
	if err != nil {
		return nil, nil, err
	}
	return C, ctx.Finish("GEMM", layer, m, n, k), nil
}

// runSNAPEALanes is the lane array's cycle loop: every lane owns one output
// neuron at a time, performs one MAC per cycle over its filter's non-zero
// weights (in holds the activations, NCXY row-major), and picks up the next
// neuron from the (k, ox, oy) work queue when it finishes or cuts — so the
// makespan is the greedy schedule's. It accounts the datapath counters, the
// bulk trace attribution and the output write-back; the early-cut counts
// are returned for the entry that enabled cutting.
func runSNAPEALanes(ctx *sim.Ctx, filters []snapeaFilter, in *tensor.Tensor, cs tensor.ConvShape, cut bool) (out *tensor.Tensor, signChecks, cuts, savedMACs uint64) {
	xo, yo := cs.OutX(), cs.OutY()
	out = tensor.New(1, cs.K, xo, yo)
	od := out.Data()
	ind := in.Data()
	cg := cs.C / cs.G
	kg := cs.K / cs.G
	inX, inY := cs.X, cs.Y

	// Work queue iterator over (k, ox, oy).
	nextK, nextX, nextY := 0, 0, 0
	more := cs.K > 0
	nextNeuron := func() (k, ox, oy int, ok bool) {
		if !more {
			return 0, 0, 0, false
		}
		k, ox, oy = nextK, nextX, nextY
		nextY++
		if nextY == yo {
			nextY = 0
			nextX++
			if nextX == xo {
				nextX = 0
				nextK++
				if nextK == cs.K {
					more = false
				}
			}
		}
		return k, ox, oy, true
	}

	pes := make([]snapeaPE, ctx.HW.MSSize)
	var mults, reads, writes uint64

	activeAny := true
	for activeAny {
		activeAny = false
		for i := range pes {
			pe := &pes[i]
			if !pe.active {
				k, ox, oy, ok := nextNeuron()
				if !ok {
					continue
				}
				pe.active = true
				pe.filter = filters[k]
				pe.outIdx = (k*xo+ox)*yo + oy
				pe.x0, pe.y0 = ox*cs.Stride-cs.Padding, oy*cs.Stride-cs.Padding
				// Group-aware channel: filter k belongs to group k/kg.
				pe.base = (k/kg*cg*inX+pe.x0)*inY + pe.y0
				pe.pos, pe.psum = 0, 0
				activeAny = true
				continue // assignment cycle
			}
			activeAny = true
			f := &pe.filter
			if cut && pe.pos >= f.negFrom {
				signChecks++
				if pe.psum <= 0 {
					od[pe.outIdx] = pe.psum
					writes++
					cuts++
					savedMACs += uint64(len(f.weights) - pe.pos)
					pe.active = false
					continue
				}
			}
			if pe.pos >= len(f.weights) {
				od[pe.outIdx] = pe.psum
				writes++
				pe.active = false
				continue
			}
			t := f.taps[pe.pos]
			var x float32 // zero padding outside the input
			if ix, iy := pe.x0+int(t.r), pe.y0+int(t.s); ix >= 0 && ix < inX && iy >= 0 && iy < inY {
				x = ind[pe.base+int(t.delta)]
			}
			pe.psum += f.weights[pe.pos] * x
			pe.pos++
			mults++
			reads += 2 // one weight, one activation (via the index table)
		}
		if activeAny {
			ctx.Cycles++
		}
	}

	ctx.Counters.Add(names.MNMults, mults)
	ctx.Counters.Add(names.RNAddersLRN, mults)
	ctx.Counters.Add(names.GBReads, reads)
	ctx.Counters.Add(names.GBWrites, writes)
	ctx.Counters.Add(names.DNLinkTraversals, reads)
	// The lane array only advances cycles while at least one lane works, so
	// every counted cycle is busy across all tiers (coarse bulk attribution
	// — the lanes fuse fetch, multiply and accumulate in one step).
	ctx.Rec.AddSpanAll(trace.Busy, ctx.Cycles)
	ctx.DRAM.WriteBack(cs.K * xo * yo)
	return out, signChecks, cuts, savedMACs
}
