package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// refSystolicArray is the shift-register systolic array the closed-form
// runTile replaced: every stream cycle it shifts each PE's A register east
// and B register south, injects the skewed edge operands (charging the
// injection, link and GB-read counters one element at a time) and fires
// every PE inside its active window. It shares with the array under test
// only the constructor's counter handles and the Ctx; its own sweep repeats
// the K-panel geometry. TestSystolicTileMatchesShiftRegister holds the
// closed form to it bit for bit.
type refSystolicArray struct {
	*systolicArray
	a, b, acc  []float32
	aNxt, bNxt []float32
}

func newRefSystolicArray(ctx *sim.Ctx) *refSystolicArray {
	s := newSystolicArray(ctx)
	n := s.p * s.p
	return &refSystolicArray{
		systolicArray: s,
		a:             make([]float32, n), b: make([]float32, n), acc: make([]float32, n),
		aNxt: make([]float32, n), bNxt: make([]float32, n),
	}
}

func (s *refSystolicArray) runTile(A, B *tensor.Tensor, C []float32, m, n, k, mi0, nj0, k0, kw int) {
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
		// MAC: every PE inside its active window fires.
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
				fwds += 2
			}
		}
	}
	s.Cycles += uint64(streamLen + systolicDrainCycles)
	if s.Rec != nil {
		for _, tier := range []int{trace.TierDN, trace.TierMN, trace.TierRN} {
			s.Rec.AddSpan(tier, trace.Busy, uint64(streamLen))
			s.Rec.AddSpan(tier, trace.Drain, systolicDrainCycles)
		}
		s.Rec.AddSpan(trace.TierMem, trace.Busy, uint64(streamLen+systolicDrainCycles))
	}
	s.cMults.Add(mults)
	s.cAdders.Add(mults)
	s.cFwds.Add(fwds)

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

func (s *refSystolicArray) sweep(A, B *tensor.Tensor) []float32 {
	m, k := A.Dim(0), A.Dim(1)
	n := B.Dim(1)
	C := make([]float32, m*n)
	p := s.p
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

// refSystolicGEMM and refSystolicConv are systolicRunner.RunGEMM and
// RunConv over the shift-register array.
func refSystolicGEMM(hw config.Hardware, A, B *tensor.Tensor) (*tensor.Tensor, *stats.Run, error) {
	ctx := sim.NewCtx(&hw)
	arr := newRefSystolicArray(ctx)
	m, k := A.Dim(0), A.Dim(1)
	n := B.Dim(1)
	ctx.InitialFill(m*k + k*n)
	C := arr.sweep(A, B)
	ctx.DRAM.WriteBack(m * n)
	out, err := tensor.FromSlice(C, m, n)
	if err != nil {
		return nil, nil, err
	}
	return out, ctx.Finish("GEMM", "oracle", m, n, k), nil
}

func refSystolicConv(hw config.Hardware, in, w *tensor.Tensor, cs tensor.ConvShape) (*tensor.Tensor, *stats.Run, error) {
	ctx := sim.NewCtx(&hw)
	arr := newRefSystolicArray(ctx)
	ctx.InitialFill(in.Len() + w.Len())
	out, err := lowerConv(in, w, cs, func(_ int, fm, cols *tensor.Tensor) ([]float32, error) {
		return arr.sweep(fm, cols), nil
	})
	if err != nil {
		return nil, nil, err
	}
	ctx.DRAM.WriteBack(cs.K * cs.OutX() * cs.OutY())
	m, n, k := cs.GEMMDims()
	return out, ctx.Finish("CONV", "oracle", m, n, k), nil
}

// TestSystolicTileMatchesShiftRegister holds the closed-form tile (each
// PE's in-order dot product, counters charged once per tile) to the
// shift-register array: bit-equal outputs, byte-equal run records (cycles,
// every counter, the traced breakdown) and equal trace spans.
func TestSystolicTileMatchesShiftRegister(t *testing.T) {
	type op struct {
		name    string
		m, n, k int               // GEMM operands (m×k)·(k×n), when cs is nil
		cs      *tensor.ConvShape // convolution, lowered through lowerConv
	}
	grouped := tensor.ConvShape{R: 3, S: 3, C: 6, G: 3, K: 9, N: 2, X: 7, Y: 6, Stride: 2, Padding: 1}
	ops := []op{
		{name: "below-P", m: 3, n: 2, k: 5},
		{name: "ragged", m: 21, n: 35, k: 19},
		{name: "kw1", m: 9, n: 7, k: 1},
		{name: "square", m: 16, n: 16, k: 32},
		// A 1 KB buffer holds K panels of 1024/(4P) = 64, 16 and 4: k = 70
		// splits at every P.
		{name: "k-split", m: 13, n: 18, k: 70},
		{name: "grouped-batched-conv", cs: &grouped},
	}
	for _, p := range []int{4, 16, 64} {
		for _, gbKB := range []int{108, 1} {
			for _, traced := range []bool{false, true} {
				for _, o := range ops {
					name := fmt.Sprintf("P%d/gb%dKB/traced=%v/%s", p, gbKB, traced, o.name)
					t.Run(name, func(t *testing.T) {
						var spans [2]*trace.RunTrace
						run := func(side int) (*tensor.Tensor, *stats.Run, error) {
							hw := config.TPULike(p * p)
							hw.GBSizeKB = gbKB
							if traced {
								hw.Trace = &trace.Config{SpanInterval: 16, OnComplete: func(rt *trace.RunTrace) { spans[side] = rt }}
							}
							if o.cs != nil {
								cs := *o.cs
								in := randTensor(3, cs.N, cs.C, cs.X, cs.Y)
								w := randTensor(4, cs.K, cs.C/cs.G, cs.R, cs.S)
								if side == 1 {
									return refSystolicConv(hw, in, w, cs)
								}
								r := &systolicRunner{hw: hw}
								return r.RunConv(in, w, cs, "oracle")
							}
							A, B := randTensor(1, o.m, o.k), randTensor(2, o.k, o.n)
							if side == 1 {
								return refSystolicGEMM(hw, A, B)
							}
							r := &systolicRunner{hw: hw}
							return r.RunGEMM(A, B, "oracle")
						}
						got, gotRun, err := run(0)
						if err != nil {
							t.Fatal(err)
						}
						want, wantRun, err := run(1)
						if err != nil {
							t.Fatal(err)
						}
						gotJSON, gerr := json.Marshal(gotRun)
						wantJSON, werr := json.Marshal(wantRun)
						if gerr != nil || werr != nil {
							t.Fatal(gerr, werr)
						}
						if !bytes.Equal(gotJSON, wantJSON) {
							t.Errorf("run record differs:\n got %s\nwant %s", gotJSON, wantJSON)
						}
						if !reflect.DeepEqual(got.Shape(), want.Shape()) {
							t.Fatalf("output shape %v, want %v", got.Shape(), want.Shape())
						}
						for i, v := range got.Data() {
							if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
								t.Fatalf("output %d = %v, want %v", i, v, want.Data()[i])
							}
						}
						if traced && (spans[0] == nil || !reflect.DeepEqual(spans[0], spans[1])) {
							t.Errorf("trace differs:\n got %+v\nwant %+v", spans[0], spans[1])
						}
					})
				}
			}
		}
	}
}
