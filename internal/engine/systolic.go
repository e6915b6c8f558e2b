package engine

import (
	"repro/internal/comp"
	"repro/internal/comp/names"
	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// systolicRunner is the TPU-like composition (dense controller + PoPN +
// LMN + LRN): an output-stationary systolic array. A operands enter skewed
// from the west and travel east, B operands enter skewed from the north and
// travel south, and each processing element accumulates its C element in
// place. The simulation shifts the physical registers cycle by cycle, so
// the result is computed by the modelled datapath itself.
type systolicRunner struct {
	hw config.Hardware
}

// Per-tile latency calibration: streaming K operands through a P×P array
// takes K + 2(P-1) + 1 cycles from first injection to last MAC; the
// output drain through the linear reduction chain overlaps column-parallel
// and adds a constant 4 cycles, matching the counts STONNE reports for the
// Table V TPU microbenchmarks (67/51 cycles for 16×16 tiles at K=32/16).
const systolicDrainCycles = 4

type systolicArray struct {
	*sim.Ctx
	p          int
	a, b, acc  []float32
	aNxt, bNxt []float32

	// Pre-resolved counter handles: injections run per edge element per
	// cycle, the rest once per tile.
	cLinkTrav, cInjections           comp.Counter
	cMults, cAdders, cFwds, cOutputs comp.Counter
}

// newSystolicArray sizes the array for a configuration config.Validate
// accepted: a square PE count with full edge bandwidth.
func newSystolicArray(ctx *sim.Ctx) *systolicArray {
	p := isqrt(ctx.HW.MSSize)
	n := p * p
	return &systolicArray{
		Ctx: ctx,
		p:   p,
		a:   make([]float32, n), b: make([]float32, n), acc: make([]float32, n),
		aNxt: make([]float32, n), bNxt: make([]float32, n),
		cLinkTrav:   ctx.Counters.Counter(names.DNLinkTraversals),
		cInjections: ctx.Counters.Counter(names.DNInjections),
		cMults:      ctx.Counters.Counter(names.MNMults),
		cAdders:     ctx.Counters.Counter(names.RNAddersLRN),
		cFwds:       ctx.Counters.Counter(names.MNForwards),
		cOutputs:    ctx.Counters.Counter(names.RNOutputs),
	}
}

// runTile streams one (P rows × P cols × K) tile and scatters the partial
// results into C (row-major m×n), accumulating across K panels.
func (s *systolicArray) runTile(A, B *tensor.Tensor, C []float32, m, n, k, mi0, nj0, k0, kw int) {
	p := s.p
	for i := range s.acc {
		s.acc[i], s.a[i], s.b[i] = 0, 0, 0
	}
	ad, bd := A.Data(), B.Data()
	streamLen := kw + 2*(p-1) + 1
	var mults, fwds uint64
	for t := 0; t < streamLen; t++ {
		// Shift: west→east for A, north→south for B, then inject edges.
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				idx := i*p + j
				if j > 0 {
					s.aNxt[idx] = s.a[idx-1]
				} else {
					var v float32
					kk := t - i
					mi := mi0 + i
					if kk >= 0 && kk < kw && mi < m {
						v = ad[mi*k+k0+kk]
						s.GB.Read(1)
						s.cLinkTrav.Add(1)
						s.cInjections.Add(1)
					}
					s.aNxt[idx] = v
				}
				if i > 0 {
					s.bNxt[idx] = s.b[idx-p]
				} else {
					var v float32
					kk := t - j
					nj := nj0 + j
					if kk >= 0 && kk < kw && nj < n {
						v = bd[(k0+kk)*n+nj]
						s.GB.Read(1)
						s.cLinkTrav.Add(1)
						s.cInjections.Add(1)
					}
					s.bNxt[idx] = v
				}
			}
		}
		s.a, s.aNxt = s.aNxt, s.a
		s.b, s.bNxt = s.bNxt, s.b
		// MAC: every PE inside its active window fires. Only PEs mapped to
		// valid output elements toggle their datapath (energy); padded
		// positions stream zeros and spend the cycles but not the events.
		for i := 0; i < p; i++ {
			if mi0+i >= m {
				break
			}
			for j := 0; j < p; j++ {
				if nj0+j >= n {
					break
				}
				kk := t - i - j
				if kk < 0 || kk >= kw {
					continue
				}
				idx := i*p + j
				s.acc[idx] += s.a[idx] * s.b[idx]
				mults++
				fwds += 2 // operand pass-through to east and south neighbours
			}
		}
	}
	s.Cycles += uint64(streamLen + systolicDrainCycles)
	if s.Rec != nil {
		// Bulk attribution for the rigid pipeline: the whole fabric works
		// for the tile's stream phase and flushes during the fixed drain;
		// the memory tier also serves the drain's output write-back.
		for _, tier := range []int{trace.TierDN, trace.TierMN, trace.TierRN} {
			s.Rec.AddSpan(tier, trace.Busy, uint64(streamLen))
			s.Rec.AddSpan(tier, trace.Drain, systolicDrainCycles)
		}
		s.Rec.AddSpan(trace.TierMem, trace.Busy, uint64(streamLen+systolicDrainCycles))
	}
	s.cMults.Add(mults)
	s.cAdders.Add(mults) // in-place accumulation chain (LRN)
	s.cFwds.Add(fwds)

	// Drain valid outputs into C.
	for i := 0; i < p; i++ {
		mi := mi0 + i
		if mi >= m {
			break
		}
		for j := 0; j < p; j++ {
			nj := nj0 + j
			if nj >= n {
				break
			}
			C[mi*n+nj] += s.acc[i*p+j]
			s.GB.Write(1)
			s.cOutputs.Add(1)
		}
	}
}

// sweep tiles an M×N×K GEMM over the array and returns C row-major; tiles
// execute back-to-back (the rigid pipeline cannot overlap tile boundaries,
// which is precisely the behaviour the RTL validation shows).
func (s *systolicArray) sweep(A, B *tensor.Tensor) []float32 {
	m, k := A.Dim(0), A.Dim(1)
	n := B.Dim(1)
	C := make([]float32, m*n)
	p := s.p
	// The GB working set per K panel must fit; panels larger than the
	// buffer are split (K folding with in-C accumulation).
	kPanel := k
	if maxK := s.GB.CapacityElems() / (4 * p); kPanel > maxK && maxK > 0 {
		kPanel = maxK
	}
	for k0 := 0; k0 < k; k0 += kPanel {
		kw := min(kPanel, k-k0)
		for mi0 := 0; mi0 < m; mi0 += p {
			for nj0 := 0; nj0 < n; nj0 += p {
				s.runTile(A, B, C, m, n, k, mi0, nj0, k0, kw)
			}
		}
	}
	return C
}

// RunGEMM runs the GEMM as one tile sweep.
func (r *systolicRunner) RunGEMM(A, B *tensor.Tensor, layer string) (*tensor.Tensor, *stats.Run, error) {
	ctx := sim.NewCtx(&r.hw)
	arr := newSystolicArray(ctx)
	m, k := A.Dim(0), A.Dim(1)
	n := B.Dim(1)
	ctx.InitialFill(m*k + k*n)
	C := arr.sweep(A, B)
	ctx.DRAM.WriteBack(m * n)
	out, err := tensor.FromSlice(C, m, n)
	if err != nil {
		return nil, nil, err
	}
	return out, ctx.Finish("GEMM", layer, m, n, k), nil
}

// RunConv lowers the convolution to GEMM with im2col — how rigid systolic
// designs execute convolutions — one tile sweep per group.
func (r *systolicRunner) RunConv(in, w *tensor.Tensor, cs tensor.ConvShape, layer string) (*tensor.Tensor, *stats.Run, error) {
	ctx := sim.NewCtx(&r.hw)
	arr := newSystolicArray(ctx)
	ctx.InitialFill(in.Len() + w.Len())
	out, err := lowerConv(in, w, cs, func(_ int, fm, cols *tensor.Tensor) ([]float32, error) {
		return arr.sweep(fm, cols), nil
	})
	if err != nil {
		return nil, nil, err
	}
	ctx.DRAM.WriteBack(cs.K * cs.OutX() * cs.OutY())
	m, n, k := cs.GEMMDims()
	return out, ctx.Finish("CONV", layer, m, n, k), nil
}

// lowerConv runs a convolution as one GEMM per group — filter matrix
// (Kg × R·S·Cg) times im2col columns (R·S·Cg × N·X'·Y'); any CONV maps to
// GEMM via img2col, Section IV-B — and scatters each row-major product into
// the NKX'Y' output.
func lowerConv(in, w *tensor.Tensor, cs tensor.ConvShape, gemm func(g int, fm, cols *tensor.Tensor) ([]float32, error)) (*tensor.Tensor, error) {
	nc := cs.OutX() * cs.OutY()
	out := tensor.New(cs.N, cs.K, cs.OutX(), cs.OutY())
	od := out.Data()
	kg := cs.K / cs.G
	for g := 0; g < cs.G; g++ {
		cols, err := tensor.Im2Col(in, cs, g)
		if err != nil {
			return nil, err
		}
		fm, err := tensor.FilterMatrix(w, cs, g)
		if err != nil {
			return nil, err
		}
		C, err := gemm(g, fm, cols)
		if err != nil {
			return nil, err
		}
		for kf := 0; kf < kg; kf++ {
			for b := 0; b < cs.N; b++ {
				copy(od[(b*cs.K+g*kg+kf)*nc:][:nc], C[(kf*cs.N+b)*nc:])
			}
		}
	}
	return out, nil
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
