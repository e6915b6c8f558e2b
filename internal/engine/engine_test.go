package engine

import (
	"math"
	"strings"
	"testing"

	"repro/internal/comp/names"
	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/tensor"
)

// randMat builds a deterministic dense matrix with the given zero fraction.
func randMat(t *testing.T, seed uint64, rows, cols int, sparsity float64) *tensor.Tensor {
	t.Helper()
	rng := dnn.NewRNG(seed)
	m := tensor.New(rows, cols)
	d := m.Data()
	for i := range d {
		if rng.Float64() < sparsity {
			continue
		}
		d[i] = float32(rng.Normal())
	}
	return m
}

func assertClose(t *testing.T, got, want *tensor.Tensor, tol float64, what string) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("%s: shape %v != %v", what, got.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	for i := range gd {
		diff := math.Abs(float64(gd[i]) - float64(wd[i]))
		scale := math.Max(1, math.Abs(float64(wd[i])))
		if diff/scale > tol {
			t.Fatalf("%s: element %d differs: got %v want %v", what, i, gd[i], wd[i])
		}
	}
}

func TestSystolicGEMMFunctional(t *testing.T) {
	acc, err := New(config.TPULike(16))
	if err != nil {
		t.Fatal(err)
	}
	for _, dims := range [][3]int{{4, 4, 4}, {16, 16, 32}, {7, 9, 13}, {33, 17, 40}} {
		m, n, k := dims[0], dims[1], dims[2]
		A := randMat(t, 1, m, k, 0)
		B := randMat(t, 2, k, n, 0)
		want, err := tensor.MatMul(A, B)
		if err != nil {
			t.Fatal(err)
		}
		got, run, err := acc.RunGEMM(A, B, "t")
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		assertClose(t, got, want, 1e-3, "systolic GEMM")
		if run.Cycles == 0 {
			t.Errorf("%v: zero cycles", dims)
		}
	}
}

func TestSystolicTableVCycles(t *testing.T) {
	// Table V TPU rows: STONNE reports 67/51/204/1072 cycles on a 16×16
	// OS array. Our per-tile calibration must reproduce them exactly
	// (modulo the DRAM initial-fill cycles, which Table V excludes — the
	// user-interface microbenchmarks run from preloaded buffers).
	hw := config.TPULike(256)
	hw.Preloaded = true // Table V microbenchmarks run from preloaded buffers
	acc, err := New(hw)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		m, n, k int
		want    uint64
	}{
		{16, 16, 32, 67},
		{16, 16, 16, 51},
		{32, 32, 16, 204},
		{64, 64, 32, 1072},
	}
	for _, c := range cases {
		A := randMat(t, 3, c.m, c.k, 0)
		B := randMat(t, 4, c.k, c.n, 0)
		_, run, err := acc.RunGEMM(A, B, "tpu")
		if err != nil {
			t.Fatal(err)
		}
		if run.Cycles != c.want {
			t.Errorf("TPU %dx%dx%d: got %d cycles, want %d", c.m, c.n, c.k, run.Cycles, c.want)
		}
	}
}

func TestFlexDenseGEMMFunctional(t *testing.T) {
	acc, err := New(config.MAERILike(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, dims := range [][3]int{{4, 4, 4}, {6, 25, 54}, {20, 5, 180}, {3, 7, 100}} {
		m, n, k := dims[0], dims[1], dims[2]
		A := randMat(t, 5, m, k, 0)
		B := randMat(t, 6, k, n, 0)
		want, err := tensor.MatMul(A, B)
		if err != nil {
			t.Fatal(err)
		}
		got, run, err := acc.RunGEMM(A, B, "t")
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		assertClose(t, got, want, 1e-3, "flex GEMM")
		if run.MACs != uint64(m*n*k) {
			t.Errorf("%v: MACs = %d, want %d", dims, run.MACs, m*n*k)
		}
	}
}

func TestFlexDenseConvFunctional(t *testing.T) {
	acc, err := New(config.MAERILike(128, 32))
	if err != nil {
		t.Fatal(err)
	}
	cases := []tensor.ConvShape{
		{R: 3, S: 3, C: 6, G: 1, K: 6, N: 1, X: 7, Y: 7, Stride: 1, Padding: 0},
		{R: 3, S: 3, C: 4, G: 1, K: 8, N: 1, X: 8, Y: 8, Stride: 1, Padding: 1},
		{R: 5, S: 5, C: 3, G: 1, K: 4, N: 1, X: 12, Y: 12, Stride: 2, Padding: 2},
		{R: 1, S: 1, C: 16, G: 1, K: 10, N: 1, X: 6, Y: 6, Stride: 1, Padding: 0},
		{R: 3, S: 3, C: 8, G: 8, K: 8, N: 1, X: 9, Y: 9, Stride: 1, Padding: 1}, // depthwise
	}
	for i, cs := range cases {
		in := randMat(t, uint64(10+i), 1, cs.C*cs.X*cs.Y, 0)
		inT, err := in.Reshape(1, cs.C, cs.X, cs.Y)
		if err != nil {
			t.Fatal(err)
		}
		w := randMat(t, uint64(20+i), cs.K, cs.C/cs.G*cs.R*cs.S, 0)
		wT, err := w.Reshape(cs.K, cs.C/cs.G, cs.R, cs.S)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tensor.Conv2D(inT, wT, cs)
		if err != nil {
			t.Fatal(err)
		}
		got, run, err := acc.RunConv(inT, wT, cs, "conv")
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		assertClose(t, got, want, 1e-3, "flex conv")
		if run.MACs != uint64(cs.MACs()) {
			t.Errorf("case %d: MACs = %d, want %d", i, run.MACs, cs.MACs())
		}
	}
}

func TestSparseSpMMFunctional(t *testing.T) {
	acc, err := New(config.SIGMALike(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []float64{0, 0.5, 0.9} {
		A := randMat(t, 30, 12, 40, sp)
		B := randMat(t, 31, 40, 9, sp/2)
		want, err := tensor.MatMul(A, B)
		if err != nil {
			t.Fatal(err)
		}
		got, run, err := acc.RunGEMM(A, B, "spmm")
		if err != nil {
			t.Fatalf("sparsity %.1f: %v", sp, err)
		}
		assertClose(t, got, want, 1e-3, "spmm")
		if sp > 0 && run.MACs >= uint64(12*40*9) {
			t.Errorf("sparsity %.1f: MACs %d not reduced below dense %d", sp, run.MACs, 12*40*9)
		}
	}
}

func TestSparseCyclesDropWithSparsity(t *testing.T) {
	acc, err := New(config.SIGMALike(128, 128))
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	for i, sp := range []float64{0, 0.5, 0.8} {
		A := randMat(t, 40, 64, 128, sp)
		B := randMat(t, 41, 128, 64, 0)
		_, run, err := acc.RunGEMM(A, B, "sweep")
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && run.Cycles >= prev {
			t.Errorf("sparsity %.1f: cycles %d did not drop below %d", sp, run.Cycles, prev)
		}
		prev = run.Cycles
	}
}

func TestSNAPEAConvFunctionalPostReLU(t *testing.T) {
	hw := config.SNAPEALike(64, 64)
	acc, err := New(hw)
	if err != nil {
		t.Fatal(err)
	}
	cs := tensor.ConvShape{R: 3, S: 3, C: 8, G: 1, K: 8, N: 1, X: 10, Y: 10, Stride: 1, Padding: 1}
	// Non-negative inputs, as the exact-mode soundness condition requires.
	rng := dnn.NewRNG(77)
	in := tensor.New(1, cs.C, cs.X, cs.Y)
	for i, d := 0, in.Data(); i < len(d); i++ {
		v := rng.Normal()
		if v < 0 {
			v = 0
		}
		d[i] = float32(v)
	}
	w := randMat(t, 78, cs.K, cs.C*cs.R*cs.S, 0.5)
	wT, err := w.Reshape(cs.K, cs.C, cs.R, cs.S)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tensor.Conv2D(in, wT, cs)
	if err != nil {
		t.Fatal(err)
	}

	gotCut, runCut, err := acc.RunSNAPEAConv(in, wT, cs, "c", true)
	if err != nil {
		t.Fatal(err)
	}
	gotBase, runBase, err := acc.RunSNAPEAConv(in, wT, cs, "c", false)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline matches the reference exactly (modulo summation order).
	assertClose(t, gotBase, want, 1e-3, "snapea baseline")

	// The cut version matches after ReLU.
	relu := func(t *tensor.Tensor) *tensor.Tensor {
		c := t.Clone()
		c.Apply(func(v float32) float32 {
			if v < 0 {
				return 0
			}
			return v
		})
		return c
	}
	assertClose(t, relu(gotCut), relu(want), 1e-3, "snapea post-relu")

	if runCut.MACs >= runBase.MACs {
		t.Errorf("SNAPEA did not save MACs: %d vs baseline %d", runCut.MACs, runBase.MACs)
	}
	if runCut.Cycles >= runBase.Cycles {
		t.Errorf("SNAPEA did not save cycles: %d vs baseline %d", runCut.Cycles, runBase.Cycles)
	}
	if runCut.Counters["snapea.cuts"] == 0 {
		t.Error("no cuts recorded")
	}
}

func TestFlexDenseBandwidthSensitivity(t *testing.T) {
	// Fig. 1b behaviour: cycles grow superlinearly as bandwidth drops.
	var cycles []uint64
	for _, bw := range []int{128, 64, 32} {
		acc, err := New(config.MAERILike(128, bw))
		if err != nil {
			t.Fatal(err)
		}
		A := randMat(t, 50, 32, 256, 0)
		B := randMat(t, 51, 256, 32, 0)
		_, run, err := acc.RunGEMM(A, B, "bw")
		if err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, run.Cycles)
	}
	if !(cycles[0] < cycles[1] && cycles[1] < cycles[2]) {
		t.Errorf("cycles did not grow as bandwidth shrank: %v", cycles)
	}
}

func TestDispatchErrors(t *testing.T) {
	if _, err := New(config.Hardware{}); err == nil {
		t.Error("empty config accepted")
	}
	acc, err := New(config.SNAPEALike(64, 64))
	if err != nil {
		t.Fatal(err)
	}
	// SNAPEA runs fully-connected layers on its dense back end.
	A := randMat(t, 60, 4, 4, 0)
	got, _, err := acc.RunGEMM(A, A, "x")
	if err != nil {
		t.Fatalf("SNAPEA dense GEMM fallback: %v", err)
	}
	want, err := tensor.MatMul(A, A)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, got, want, 1e-3, "snapea dense fallback")

	bad := randMat(t, 61, 3, 5, 0)
	if _, _, err := acc.RunGEMM(A, bad, "x"); err == nil {
		t.Error("mismatched GEMM dims accepted")
	}
}

// The SNAPEA GEMM entry is the 1×1-convolution lowering onto the one lane
// loop: it must agree with a hand-built 1×1 conv (cut off) on cycles and on
// the datapath counters. The conv entry sign-sorts its weights, so outputs
// agree only under the architecture's RelTol; and the index-table read and
// the early-cut counters belong to the conv entry alone.
func TestSNAPEAGEMMIsTheOneByOneConv(t *testing.T) {
	acc, err := New(config.SNAPEALike(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		m, n, k  int
		sparsity float64
	}{{1, 1, 1, 0}, {5, 7, 9, 0}, {24, 24, 96, 0}, {9, 40, 33, 0.6}, {40, 3, 17, 0.9}} {
		m, n, k := tc.m, tc.n, tc.k
		A := randMat(t, 0x91, m, k, tc.sparsity)
		B := randMat(t, 0x92, k, n, 0)
		C, gemm, err := acc.RunGEMM(A, B, "g")
		if err != nil {
			t.Fatal(err)
		}
		in, _ := B.Reshape(1, k, n, 1)
		w, _ := A.Reshape(m, k, 1, 1)
		cs := tensor.ConvShape{R: 1, S: 1, C: k, G: 1, K: m, N: 1, X: n, Y: 1, Stride: 1}
		out, conv, err := acc.RunSNAPEAConv(in, w, cs, "c", false)
		if err != nil {
			t.Fatal(err)
		}
		if gemm.Cycles != conv.Cycles {
			t.Errorf("%dx%dx%d: cycles %d (GEMM) vs %d (1x1 conv)", m, n, k, gemm.Cycles, conv.Cycles)
		}
		for _, key := range []string{names.MNMults, names.GBReads, names.GBWrites} {
			if gemm.Counters[key] != conv.Counters[key] {
				t.Errorf("%dx%dx%d: %s %d (GEMM) vs %d (1x1 conv)", m, n, k, key, gemm.Counters[key], conv.Counters[key])
			}
		}
		for key := range gemm.Counters {
			if key == names.GBMetaReads || strings.HasPrefix(key, "snapea.") {
				t.Errorf("%dx%dx%d: GEMM counter file carries conv-only key %s", m, n, k, key)
			}
		}
		relTol := acc.arch.Contract.RelTol
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var mag float64
				for kk := 0; kk < k; kk++ {
					mag += math.Abs(float64(A.At(i, kk)) * float64(B.At(kk, j)))
				}
				if d := math.Abs(float64(C.At(i, j)) - float64(out.At(0, i, j, 0))); d > relTol*mag {
					t.Fatalf("%dx%dx%d: C[%d,%d] differs by %g, bound %g", m, n, k, i, j, d, relTol*mag)
				}
			}
		}
	}
}
