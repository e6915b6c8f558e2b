// Package check is the tolerance model of the differential verification
// harness: it replays any workload the simulator ran (GEMM, convolution,
// sparse MM) on the CPU reference executor and compares the simulated output
// tensor element by element under a summation-order-aware tolerance model.
// The cases that drive it (stonne.Case, stonne.SweepCases) run through the
// stonne runner the CLI and the service use.
//
// The tolerance an architecture earns comes from its registered
// sim.NumericContract. Compositions that accumulate every output in the
// reference k-order (the systolic array) must match bit for bit — ULP
// distance zero. Compositions whose reduction trees or scheduling rounds
// reorder the sum (MAERI's ART, SIGMA's FAN clusters) are held to a bounded
// error relative to the element's reordering scale Σ|aᵢ·bᵢ| — the
// absolute-value product, computed by the same reference kernels on |A| and
// |B|. SNAPEA's early negative cut makes convolution outputs meaningful only
// after the following ReLU, so its contract clamps both sides at zero first.
package check

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Default tolerances for architectures whose contract leaves them unset.
const (
	// DefaultRelTol bounds |got−want| by DefaultRelTol·Σ|aᵢ·bᵢ| per element
	// when a reordering architecture does not declare its own bound.
	DefaultRelTol = 1e-5
	// DefaultAtol is the absolute floor added to every per-element bound, so
	// elements whose reordering scale is zero still admit float32 noise.
	DefaultAtol = 1e-6
)

// maxWorst caps how many worst-offending elements a report retains.
const maxWorst = 5

// Tolerance is the resolved per-run comparison policy.
type Tolerance struct {
	// Exact requires bit-for-bit equality (ULP distance 0).
	Exact bool
	// RelTol scales the per-element bound Σ|aᵢ·bᵢ| (unused when Exact).
	RelTol float64
	// Atol is the absolute error floor (unused when Exact).
	Atol float64
	// ClampNonNeg clamps both sides at zero before comparing — the
	// post-activation contract of early-termination architectures.
	ClampNonNeg bool
}

func (t Tolerance) String() string {
	if t.Exact {
		return "exact (ULP 0)"
	}
	s := fmt.Sprintf("rel %.1e + abs %.1e", t.RelTol, t.Atol)
	if t.ClampNonNeg {
		s += ", post-ReLU"
	}
	return s
}

// ToleranceFor resolves the comparison policy for a configuration from the
// architecture registry. conv selects the convolution flavour of the
// contract (the early-cut clamp applies to convolutions only).
func ToleranceFor(hw config.Hardware, conv bool) (Tolerance, string, error) {
	arch, err := sim.Resolve(hw)
	if err != nil {
		return Tolerance{}, "", err
	}
	c := arch.Contract
	tol := Tolerance{Exact: c.ExactSum, RelTol: c.RelTol, Atol: DefaultAtol}
	if !tol.Exact && tol.RelTol == 0 {
		tol.RelTol = DefaultRelTol
	}
	if conv && c.PostActivationConv {
		tol.ClampNonNeg = true
	}
	return tol, arch.Name, nil
}

// Offender is one compared element, reported when it is among the worst.
type Offender struct {
	Index     []int // multi-index into the output tensor
	Got, Want float32
	AbsErr    float64
	// Excess is AbsErr divided by the element's allowed error — > 1 means
	// the element failed. Exact comparisons score by ULP distance instead.
	Excess float64
	ULP    uint64
}

func (o Offender) String() string {
	return fmt.Sprintf("[%s] got %v want %v (abs %.3g, %.2f× allowed, %d ulp)",
		joinInts(o.Index), o.Got, o.Want, o.AbsErr, o.Excess, o.ULP)
}

// Report is the outcome of one differential comparison.
type Report struct {
	Arch string // registry name, when resolved via a Verify* helper
	Op   string // "GEMM", "CONV" or "SPMM"
	Tol  Tolerance
	// Elems is the number of elements compared, Mismatches how many
	// exceeded their allowed error.
	Elems, Mismatches int
	MaxAbsErr         float64
	MaxULP            uint64
	// MaxExcess is the largest AbsErr/allowed ratio seen (exact runs report
	// MaxULP instead).
	MaxExcess float64
	// Worst holds the worst-scoring elements, most offending first.
	Worst []Offender
}

// OK reports whether every element met its bound.
func (r *Report) OK() bool { return r.Mismatches == 0 }

// Err returns nil for a passing report and a descriptive error otherwise.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("check: %s", r.String())
}

func (r *Report) String() string {
	var b strings.Builder
	name := r.Arch
	if name == "" {
		name = "?"
	}
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "%s %s/%s vs reference [%s]: %d/%d elements out of tolerance",
		verdict, name, r.Op, r.Tol, r.Mismatches, r.Elems)
	if r.Tol.Exact {
		fmt.Fprintf(&b, " (max %d ulp)", r.MaxULP)
	} else {
		fmt.Fprintf(&b, " (max abs %.3g, %.2f× allowed)", r.MaxAbsErr, r.MaxExcess)
	}
	for _, o := range r.Worst {
		fmt.Fprintf(&b, "\n  worst %s", o.String())
	}
	return b.String()
}

// Compare checks got against want element-wise under tol. bound supplies
// each element's reordering scale Σ|aᵢ·bᵢ| (same shape as want); it may be
// nil, in which case |want| stands in as the scale. Shapes must match.
func Compare(got, want, bound *tensor.Tensor, tol Tolerance) (*Report, error) {
	if got == nil || want == nil {
		return nil, fmt.Errorf("check: nil tensor in comparison")
	}
	if !tensor.SameShape(got, want) {
		return nil, fmt.Errorf("check: output shape %v does not match reference %v",
			got.Shape(), want.Shape())
	}
	if bound != nil && !tensor.SameShape(bound, want) {
		return nil, fmt.Errorf("check: bound shape %v does not match reference %v",
			bound.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	var bd []float32
	if bound != nil {
		bd = bound.Data()
	}
	rep := &Report{Tol: tol, Elems: len(gd)}
	for i := range gd {
		g, w := gd[i], wd[i]
		if tol.ClampNonNeg {
			if g < 0 {
				g = 0
			}
			if w < 0 {
				w = 0
			}
		}
		ulp := ULPDist(g, w)
		absErr := math.Abs(float64(g) - float64(w))
		if math.IsNaN(float64(g)) || math.IsNaN(float64(w)) {
			absErr = math.Inf(1)
		}
		var excess float64
		var bad bool
		if tol.Exact {
			excess = float64(ulp)
			bad = ulp > 0
		} else {
			scale := math.Abs(float64(w))
			if bd != nil {
				scale = math.Abs(float64(bd[i]))
			}
			allowed := tol.Atol + tol.RelTol*scale
			excess = absErr / allowed
			bad = absErr > allowed
		}
		if bad {
			rep.Mismatches++
		}
		if absErr > rep.MaxAbsErr {
			rep.MaxAbsErr = absErr
		}
		if ulp > rep.MaxULP {
			rep.MaxULP = ulp
		}
		if excess > rep.MaxExcess {
			rep.MaxExcess = excess
		}
		if excess > 0 {
			rep.noteWorst(Offender{
				Index: unravel(i, want.Shape()),
				Got:   g, Want: w,
				AbsErr: absErr, Excess: excess, ULP: ulp,
			})
		}
	}
	return rep, nil
}

// noteWorst keeps the top-maxWorst offenders sorted by descending Excess.
func (r *Report) noteWorst(o Offender) {
	pos := len(r.Worst)
	for pos > 0 && r.Worst[pos-1].Excess < o.Excess {
		pos--
	}
	if pos >= maxWorst {
		return
	}
	r.Worst = append(r.Worst, Offender{})
	copy(r.Worst[pos+1:], r.Worst[pos:])
	r.Worst[pos] = o
	if len(r.Worst) > maxWorst {
		r.Worst = r.Worst[:maxWorst]
	}
}

// VerifyGEMM recomputes C = A×B on the CPU reference and compares got
// against it under the configuration's architecture contract.
func VerifyGEMM(hw config.Hardware, A, B, got *tensor.Tensor) (*Report, error) {
	return verifyMM(hw, A, B, got, "GEMM")
}

// VerifySpMM is VerifyGEMM for the sparse front end: the reference for a
// sparse×dense product is the same dense MatMul (A carries its zeros).
func VerifySpMM(hw config.Hardware, A, B, got *tensor.Tensor) (*Report, error) {
	return verifyMM(hw, A, B, got, "SPMM")
}

func verifyMM(hw config.Hardware, A, B, got *tensor.Tensor, op string) (*Report, error) {
	tol, arch, err := ToleranceFor(hw, false)
	if err != nil {
		return nil, err
	}
	want, err := tensor.MatMul(A, B)
	if err != nil {
		return nil, fmt.Errorf("check: reference %s: %w", op, err)
	}
	var bound *tensor.Tensor
	if !tol.Exact {
		if bound, err = tensor.MatMul(absTensor(A), absTensor(B)); err != nil {
			return nil, fmt.Errorf("check: %s bound: %w", op, err)
		}
	}
	rep, err := Compare(got, want, bound, tol)
	if err != nil {
		return nil, err
	}
	rep.Arch, rep.Op = arch, op
	return rep, nil
}

// VerifyConv recomputes the convolution on the CPU reference and compares
// got against it under the configuration's architecture contract.
func VerifyConv(hw config.Hardware, in, w *tensor.Tensor, cs tensor.ConvShape, got *tensor.Tensor) (*Report, error) {
	tol, arch, err := ToleranceFor(hw, true)
	if err != nil {
		return nil, err
	}
	want, err := tensor.Conv2D(in, w, cs)
	if err != nil {
		return nil, fmt.Errorf("check: reference CONV: %w", err)
	}
	var bound *tensor.Tensor
	if !tol.Exact {
		if bound, err = tensor.Conv2D(absTensor(in), absTensor(w), cs); err != nil {
			return nil, fmt.Errorf("check: CONV bound: %w", err)
		}
	}
	rep, err := Compare(got, want, bound, tol)
	if err != nil {
		return nil, err
	}
	rep.Arch, rep.Op = arch, "CONV"
	return rep, nil
}

// ULPDist returns the distance between two float32 values in units of last
// place — the number of representable values strictly between them, plus
// one when they differ. Equal values (including +0 vs −0) are 0; any NaN
// operand is infinitely far.
func ULPDist(a, b float32) uint64 {
	if a == b {
		return 0
	}
	if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
		return math.MaxUint64
	}
	ia, ib := lexOrder(a), lexOrder(b)
	if ia < ib {
		ia, ib = ib, ia
	}
	return uint64(ia - ib)
}

// lexOrder maps float32 bit patterns onto a line where adjacent
// representable values differ by exactly 1 — the standard two's-complement
// trick, with negative floats reflected below zero.
func lexOrder(f float32) int64 {
	b := int64(math.Float32bits(f))
	if b >= 0x80000000 { // sign bit set
		return 0x80000000 - b
	}
	return b
}

// absTensor returns a copy with every element replaced by its magnitude.
func absTensor(t *tensor.Tensor) *tensor.Tensor {
	c := t.Clone()
	c.Apply(func(x float32) float32 {
		return float32(math.Abs(float64(x)))
	})
	return c
}

// unravel converts a flat row-major offset into a multi-index.
func unravel(off int, shape []int) []int {
	idx := make([]int, len(shape))
	for i := len(shape) - 1; i >= 0; i-- {
		idx[i] = off % shape[i]
		off /= shape[i]
	}
	return idx
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}
