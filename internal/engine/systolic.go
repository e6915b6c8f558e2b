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
// place. At full edge bandwidth nothing in that datapath depends on the
// values, so the runner computes each PE's result as the in-order dot
// product its register chain produces, and takes cycles and counters from
// the per-tile closed form (SCALE-Sim's model of the same array).
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
	p   int
	acc []float32 // one tile's accumulators, rows×cols row-major

	// Pre-resolved counter handles, charged once per tile.
	cLinkTrav, cInjections           comp.Counter
	cMults, cAdders, cFwds, cOutputs comp.Counter
}

// newSystolicArray sizes the array for a configuration config.Validate
// accepted: a square PE count with full edge bandwidth.
func newSystolicArray(ctx *sim.Ctx) *systolicArray {
	p := config.ISqrt(ctx.HW.MSSize)
	return &systolicArray{
		Ctx:         ctx,
		p:           p,
		acc:         make([]float32, p*p),
		cLinkTrav:   ctx.Counters.Counter(names.DNLinkTraversals),
		cInjections: ctx.Counters.Counter(names.DNInjections),
		cMults:      ctx.Counters.Counter(names.MNMults),
		cAdders:     ctx.Counters.Counter(names.RNAddersLRN),
		cFwds:       ctx.Counters.Counter(names.MNForwards),
		cOutputs:    ctx.Counters.Counter(names.RNOutputs),
	}
}

// runTile runs one (P rows × P cols × kw) tile and adds its results into C
// (row-major m×n), accumulating across K panels. PE (i, j) sees
// A[mi0+i][k0+kk]·B[k0+kk][nj0+j] for kk = 0..kw-1, in that order, starting
// from zero: kk outer keeps every accumulator's terms in that order and
// reads B by row. PEs past the edge of C stream zeros and spend the cycles
// but not the datapath events.
func (s *systolicArray) runTile(A, B *tensor.Tensor, C []float32, m, n, k, mi0, nj0, k0, kw int) {
	rows, cols := min(s.p, m-mi0), min(s.p, n-nj0)
	acc := s.acc[:rows*cols]
	clear(acc)
	ad, bd := A.Data(), B.Data()
	for kk := k0; kk < k0+kw; kk++ {
		brow := bd[kk*n+nj0:][:cols]
		for i := 0; i < rows; i++ {
			a := ad[(mi0+i)*k+kk]
			arow := acc[i*cols:][:cols]
			for j, b := range brow {
				arow[j] += a * b
			}
		}
	}
	for i := 0; i < rows; i++ {
		crow := C[(mi0+i)*n+nj0:][:cols]
		for j, v := range acc[i*cols:][:cols] {
			crow[j] += v
		}
	}

	streamLen := kw + 2*(s.p-1) + 1
	s.Cycles += uint64(streamLen + systolicDrainCycles)
	if s.Rec != nil {
		// Bulk attribution for the rigid pipeline: the whole fabric works
		// for the tile's stream phase and flushes during the fixed drain;
		// the memory tier also serves the drain's output write-back.
		for _, tier := range [...]int{trace.TierDN, trace.TierMN, trace.TierRN} {
			s.Rec.AddSpan(tier, trace.Busy, uint64(streamLen))
			s.Rec.AddSpan(tier, trace.Drain, systolicDrainCycles)
		}
		s.Rec.AddSpan(trace.TierMem, trace.Busy, uint64(streamLen+systolicDrainCycles))
	}
	// Every A row and B column in range is injected once per kk from the GB;
	// every valid PE multiplies, accumulates in place (LRN) and passes both
	// operands on to its east and south neighbours once per kk, then drains
	// its output to the GB.
	injections := kw * (rows + cols)
	macs := uint64(rows * cols * kw)
	s.GB.Read(injections)
	s.cLinkTrav.Add(uint64(injections))
	s.cInjections.Add(uint64(injections))
	s.cMults.Add(macs)
	s.cAdders.Add(macs)
	s.cFwds.Add(2 * macs)
	s.GB.Write(rows * cols)
	s.cOutputs.Add(uint64(rows * cols))
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
