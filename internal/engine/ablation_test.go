package engine

import (
	"testing"

	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// The ablations of the design choices DESIGN.md calls out: each test runs
// one operation on a baseline composition under every setting of one knob
// and pins the simulated metric that knob moves (or, where the answer is
// "nothing", that it does not move).

// normals fills ts, in order, from one standard-normal stream.
func normals(seed uint64, ts ...*tensor.Tensor) {
	rng := dnn.NewRNG(seed)
	for _, t := range ts {
		for i, d := 0, t.Data(); i < len(d); i++ {
			d[i] = float32(rng.Normal())
		}
	}
}

// ablationRun builds an accelerator for hw and runs op on it.
func ablationRun(t *testing.T, hw config.Hardware, op func(*Accelerator) (*tensor.Tensor, *stats.Run, error)) *stats.Run {
	t.Helper()
	acc, err := New(hw)
	if err != nil {
		t.Fatal(err)
	}
	_, run, err := op(acc)
	if err != nil {
		t.Fatalf("%s: %v", hw.Name, err)
	}
	return run
}

func gemmOp(A, B *tensor.Tensor) func(*Accelerator) (*tensor.Tensor, *stats.Run, error) {
	return func(a *Accelerator) (*tensor.Tensor, *stats.Run, error) { return a.RunGEMM(A, B, "ablation") }
}

// TestAblationFIFODepth sweeps the operand FIFO depth between the DN and
// the MN. On this GEMM at DN bandwidth 32 delivery, not FIFO space, bounds
// the run: every depth takes the same cycles.
func TestAblationFIFODepth(t *testing.T) {
	A, B := tensor.New(32, 256), tensor.New(256, 32)
	normals(2, A, B)
	for _, depth := range []int{1, 2, 4, 8, 16} {
		hw := config.MAERILike(128, 32)
		hw.FIFODepth = depth
		hw.Preloaded = true
		if got := ablationRun(t, hw, gemmOp(A, B)).Cycles; got != 8455 {
			t.Errorf("depth %d: %d cycles, want 8455", depth, got)
		}
	}
}

// TestAblationRN compares ART+ACC with plain ART on a GEMM that folds:
// plain ART's fold partials round-trip through the output ports and the
// GB, which costs traffic but no cycles.
func TestAblationRN(t *testing.T) {
	A, B := tensor.New(16, 512), tensor.New(512, 16)
	normals(3, A, B)
	for _, tc := range []struct {
		rn   config.RNType
		want uint64
	}{
		{config.ARTAccRN, 2183},
		{config.ARTRN, 2183},
	} {
		hw := config.MAERILike(128, 64)
		hw.RN = tc.rn
		hw.Preloaded = true
		if got := ablationRun(t, hw, gemmOp(A, B)).Cycles; got != tc.want {
			t.Errorf("%v: %d cycles, want %d", tc.rn, got, tc.want)
		}
	}
}

// TestAblationSparseFormat compares the bitmap and CSR sparse front
// formats: they differ in metadata traffic.
func TestAblationSparseFormat(t *testing.T) {
	rng := dnn.NewRNG(4)
	A := tensor.New(64, 256)
	for i, d := 0, A.Data(); i < len(d); i++ {
		if rng.Float64() > 0.8 {
			d[i] = float32(rng.Normal())
		}
	}
	B := tensor.New(256, 32)
	for i, d := 0, B.Data(); i < len(d); i++ {
		d[i] = float32(rng.Normal())
	}
	for _, tc := range []struct {
		f    config.SparseFmt
		want uint64
	}{
		{config.FmtBitmap, 256},
		{config.FmtCSR, 3285},
	} {
		hw := config.SIGMALike(128, 128)
		hw.SparseFormat = tc.f
		hw.Preloaded = true
		run := ablationRun(t, hw, func(a *Accelerator) (*tensor.Tensor, *stats.Run, error) {
			return a.RunSpMM(A, B, "ablation", nil)
		})
		if got := run.Counters["gb.meta_reads"]; got != tc.want {
			t.Errorf("%v: %d meta reads, want %d", tc.f, got, tc.want)
		}
	}
}

// TestAblationForwarding toggles the Linear MN forwarding links on a
// convolution: injection is serialized either way, so the cycles are
// equal, but forwarding saves most GB reads (and their tree-wire energy).
func TestAblationForwarding(t *testing.T) {
	cs := tensor.ConvShape{R: 3, S: 3, C: 8, G: 1, K: 8, N: 1, X: 16, Y: 16, Stride: 1, Padding: 1}
	in, w := tensor.New(1, cs.C, cs.X, cs.Y), tensor.New(cs.K, cs.C, cs.R, cs.S)
	normals(5, in, w)
	var cycles []uint64
	for _, tc := range []struct {
		mn   config.MNType
		want uint64
	}{
		{config.LinearMN, 55872},
		{config.DisabledMN, 148032},
	} {
		hw := config.MAERILike(128, 32)
		hw.MN = tc.mn
		hw.Preloaded = true
		run := ablationRun(t, hw, func(a *Accelerator) (*tensor.Tensor, *stats.Run, error) {
			return a.RunConv(in, w, cs, "ablation")
		})
		if got := run.Counters["gb.reads"]; got != tc.want {
			t.Errorf("%v: %d GB reads, want %d", tc.mn, got, tc.want)
		}
		cycles = append(cycles, run.Cycles)
	}
	if cycles[0] != cycles[1] {
		t.Errorf("forwarding moved the cycles: %d with, %d without", cycles[0], cycles[1])
	}
}

// TestAblationPrefetch compares a cold start, whose operands stream in
// from DRAM behind the double-buffered prefetch, with preloaded buffers.
func TestAblationPrefetch(t *testing.T) {
	A, B := tensor.New(64, 128), tensor.New(128, 64)
	normals(6, A, B)
	for _, tc := range []struct {
		preloaded bool
		want      uint64
	}{
		{false, 8393},
		{true, 8327},
	} {
		hw := config.MAERILike(128, 64)
		hw.Preloaded = tc.preloaded
		if got := ablationRun(t, hw, gemmOp(A, B)).Cycles; got != tc.want {
			t.Errorf("preloaded=%v: %d cycles, want %d", tc.preloaded, got, tc.want)
		}
	}
}

// TestAblationDataflow pins the dense controller's stationary choice on a
// batch-1 fully-connected layer: forced weight-stationary reloads the
// stationary registers every fold with no reuse, while the automatic
// choice is input-stationary and streams the weights.
func TestAblationDataflow(t *testing.T) {
	W, x := tensor.New(256, 512), tensor.New(512, 1)
	normals(8, W, x)
	for _, tc := range []struct {
		name  string
		df    config.Dataflow
		force bool
		want  uint64
	}{
		{"auto", config.OutputStationary, false, 2063},
		{"forced-WS", config.WeightStationary, true, 5126},
		{"forced-IS", config.InputStationary, true, 2063},
	} {
		hw := config.MAERILike(128, 64)
		hw.Dataflow = tc.df
		hw.ForceDataflow = tc.force
		hw.Preloaded = true
		if got := ablationRun(t, hw, gemmOp(W, x)).Cycles; got != tc.want {
			t.Errorf("%s: %d cycles, want %d", tc.name, got, tc.want)
		}
	}
}

// TestAblationSchedulingPolicies runs the three filter-scheduling policies
// on one sparse layer with a high per-row density variance, as trained and
// then pruned filters have (the kernel of Fig. 9).
func TestAblationSchedulingPolicies(t *testing.T) {
	rng := dnn.NewRNG(7)
	A := tensor.New(96, 256)
	d := A.Data()
	for r := 0; r < 96; r++ {
		density := 0.05 + 0.4*rng.Float64()
		for c := 0; c < 256; c++ {
			if rng.Float64() < density {
				d[r*256+c] = float32(rng.Normal())
			}
		}
	}
	B := tensor.New(256, 64)
	for i, bd := 0, B.Data(); i < len(bd); i++ {
		bd[i] = float32(rng.Normal())
	}
	for _, tc := range []struct {
		pol  sched.Policy
		want uint64
	}{
		{sched.NS, 3368},
		{sched.RDM, 3415},
		{sched.LFF, 3366},
	} {
		hw := config.SIGMALike(256, 128)
		hw.Preloaded = true
		run := ablationRun(t, hw, func(a *Accelerator) (*tensor.Tensor, *stats.Run, error) {
			return a.RunSpMM(A, B, "ablation", &tc.pol)
		})
		if run.Cycles != tc.want {
			t.Errorf("%v: %d cycles, want %d", tc.pol, run.Cycles, tc.want)
		}
	}
}
