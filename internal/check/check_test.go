package check

import (
	"math"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/tensor"
)

func TestULPDist(t *testing.T) {
	cases := []struct {
		a, b float32
		want uint64
	}{
		{1, 1, 0},
		{0, float32(math.Copysign(0, -1)), 0}, // +0 and −0 are equal
		{1, math.Nextafter32(1, 2), 1},
		{1, math.Nextafter32(math.Nextafter32(1, 2), 2), 2},
		{-1, math.Nextafter32(-1, -2), 1},
		{math.Nextafter32(0, 1), float32(math.Copysign(float64(math.Nextafter32(0, 1)), -1)), 2},
	}
	for _, c := range cases {
		if got := ULPDist(c.a, c.b); got != c.want {
			t.Errorf("ULPDist(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := ULPDist(c.b, c.a); got != c.want {
			t.Errorf("ULPDist(%v, %v) = %d, want %d (asymmetric)", c.b, c.a, got, c.want)
		}
	}
	if got := ULPDist(float32(math.NaN()), 1); got != math.MaxUint64 {
		t.Errorf("NaN distance = %d", got)
	}
}

func TestToleranceFor(t *testing.T) {
	tpu := config.TPULike(16)
	tol, arch, err := ToleranceFor(tpu, false)
	if err != nil {
		t.Fatal(err)
	}
	if arch != "tpu" || !tol.Exact {
		t.Errorf("tpu contract: arch=%s tol=%+v", arch, tol)
	}
	maeri := config.MAERILike(16, 8)
	tol, arch, err = ToleranceFor(maeri, false)
	if err != nil {
		t.Fatal(err)
	}
	if arch != "maeri" || tol.Exact || tol.RelTol <= 0 {
		t.Errorf("maeri contract: arch=%s tol=%+v", arch, tol)
	}
	snapea := config.SNAPEALike(16, 8)
	tol, _, err = ToleranceFor(snapea, true)
	if err != nil {
		t.Fatal(err)
	}
	if !tol.ClampNonNeg {
		t.Errorf("snapea conv contract should clamp: %+v", tol)
	}
	tol, _, _ = ToleranceFor(snapea, false)
	if tol.ClampNonNeg {
		t.Errorf("snapea GEMM contract should not clamp: %+v", tol)
	}
}

func TestCompareExact(t *testing.T) {
	a, _ := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	rep, err := Compare(a.Clone(), a, nil, Tolerance{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Err() != nil {
		t.Fatalf("identical tensors failed exact compare: %s", rep)
	}
	b := a.Clone()
	b.Set(math.Nextafter32(3, 4), 1, 0)
	rep, err = Compare(b, a, nil, Tolerance{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Mismatches != 1 || rep.MaxULP != 1 {
		t.Fatalf("1-ulp deviation not flagged: %s", rep)
	}
	if rep.Err() == nil {
		t.Fatal("failing report has nil Err")
	}
}

func TestCompareRelative(t *testing.T) {
	want, _ := tensor.FromSlice([]float32{100, 0}, 1, 2)
	bound, _ := tensor.FromSlice([]float32{100, 0}, 1, 2)
	got, _ := tensor.FromSlice([]float32{100.0005, 0}, 1, 2)
	tol := Tolerance{RelTol: 1e-5, Atol: 1e-6}
	rep, err := Compare(got, want, bound, tol)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("in-tolerance deviation flagged: %s", rep)
	}
	got2, _ := tensor.FromSlice([]float32{100.01, 0}, 1, 2)
	rep, _ = Compare(got2, want, bound, tol)
	if rep.OK() {
		t.Fatalf("10×-out deviation accepted: %s", rep)
	}
	// A zero bound admits only the absolute floor.
	got3, _ := tensor.FromSlice([]float32{100, 0.5}, 1, 2)
	rep, _ = Compare(got3, want, bound, tol)
	if rep.OK() {
		t.Fatalf("error on a zero-bound element accepted: %s", rep)
	}
}

func TestCompareClampNonNeg(t *testing.T) {
	// SNAPEA's cut writes whatever negative psum it stopped at; post-ReLU
	// both sides are zero and must compare equal.
	want, _ := tensor.FromSlice([]float32{-3.75, 2}, 1, 2)
	got, _ := tensor.FromSlice([]float32{-0.01, 2}, 1, 2)
	tol := Tolerance{RelTol: 1e-5, Atol: 1e-6, ClampNonNeg: true}
	rep, err := Compare(got, want, nil, tol)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("negative-vs-negative mismatch should clamp away: %s", rep)
	}
	tol.ClampNonNeg = false
	rep, _ = Compare(got, want, nil, tol)
	if rep.OK() {
		t.Fatal("without clamping the deviation must be flagged")
	}
}

func TestCompareShapeMismatch(t *testing.T) {
	if _, err := Compare(tensor.New(2, 2), tensor.New(2, 3), nil, Tolerance{}); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := Compare(nil, tensor.New(1), nil, Tolerance{}); err == nil {
		t.Error("nil tensor accepted")
	}
	if _, err := Compare(tensor.New(2), tensor.New(2), tensor.New(3), Tolerance{}); err == nil {
		t.Error("bound shape mismatch accepted")
	}
}

func TestReportWorstOffenders(t *testing.T) {
	want := tensor.New(10)
	got := tensor.New(10)
	for i := 0; i < 10; i++ {
		got.Set(float32(i)*0.1, i) // increasing error
	}
	rep, err := Compare(got, want, nil, Tolerance{RelTol: 1e-5, Atol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Worst) != maxWorst {
		t.Fatalf("worst list has %d entries, want %d", len(rep.Worst), maxWorst)
	}
	for i := 1; i < len(rep.Worst); i++ {
		if rep.Worst[i].Excess > rep.Worst[i-1].Excess {
			t.Fatalf("worst list not sorted: %v", rep.Worst)
		}
	}
	if rep.Worst[0].Index[0] != 9 {
		t.Errorf("worst element should be index 9, got %v", rep.Worst[0].Index)
	}
	if !strings.Contains(rep.String(), "worst") {
		t.Error("report omits worst offenders")
	}
}

func TestVerifyGEMMDetectsCorruption(t *testing.T) {
	hw := config.TPULike(16)
	rng := dnn.NewRNG(7)
	A, B := randTensor(rng, 5, 6), randTensor(rng, 6, 4)
	acc, err := engine.New(hw)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := acc.RunGEMM(A, B, "t")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyGEMM(hw, A, B, got)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean run failed verification: %s", rep)
	}
	// A single flipped mantissa bit must be caught.
	got.Set(math.Nextafter32(got.At(2, 1), 2), 2, 1)
	rep, err = VerifyGEMM(hw, A, B, got)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("bit-flipped output passed exact verification")
	}
}

// Regression: the flexible dense schedule used to stream only the first
// image of a batched convolution and return an N=1 output tensor.
func TestBatchedConvMAERIRegression(t *testing.T) {
	hw := config.MAERILike(16, 8)
	cs := tensor.ConvShape{R: 2, S: 2, C: 3, G: 1, K: 2, N: 3, X: 5, Y: 5, Stride: 1}
	rng := dnn.NewRNG(99)
	in := randTensor(rng, cs.N, cs.C, cs.X, cs.Y)
	w := randTensor(rng, cs.K, cs.C/cs.G, cs.R, cs.S)
	acc, err := engine.New(hw)
	if err != nil {
		t.Fatal(err)
	}
	got, run, err := acc.RunConv(in, w, cs, "batch-regression")
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim(0) != cs.N {
		t.Fatalf("output batch dim %d, want %d", got.Dim(0), cs.N)
	}
	if run.Cycles == 0 {
		t.Fatal("merged run lost its cycle count")
	}
	rep, err := VerifyConv(hw, in, w, cs, got)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("batched conv wrong: %s", rep)
	}
}

// Every architecture must declare a resolvable numeric contract.
func TestEveryArchHasContract(t *testing.T) {
	for _, a := range sim.List() {
		if a.Contract.ExactSum {
			continue
		}
		if a.Contract.RelTol <= 0 {
			// RelTol zero falls back to the harness default — allowed, but
			// the four paper compositions all declare one explicitly.
			t.Errorf("arch %s declares neither ExactSum nor RelTol", a.Name)
		}
	}
}
