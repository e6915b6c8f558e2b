package stonne

import (
	"reflect"
	"testing"

	"repro/internal/dnn"
	"repro/internal/tensor"
)

func randAPITensor(seed uint64, sparsity float64, shape ...int) *Tensor {
	rng := dnn.NewRNG(seed)
	t := NewTensor(shape...)
	for i, d := 0, t.Data(); i < len(d); i++ {
		if rng.Float64() >= sparsity {
			d[i] = float32(rng.Normal())
		}
	}
	return t
}

func TestConfigureSpMMFlow(t *testing.T) {
	inst, err := CreateInstance(SIGMALike(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	A := randAPITensor(1, 0.7, 12, 40)
	B := randAPITensor(2, 0, 40, 9)
	for _, pol := range []SchedPolicy{NoScheduling, RandomScheduling, LargestFilterFirst} {
		inst.ConfigureSpMM(pol)
		inst.ConfigureData(A, B)
		out, run, err := inst.RunOperation()
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		want, _ := tensor.MatMul(A, B)
		if d := maxRelDiff(out, want); d > 1e-3 {
			t.Errorf("%v: SpMM wrong by %g", pol, d)
		}
		if run.Op != "SpMM" {
			t.Errorf("op %q", run.Op)
		}
	}
	if len(inst.Runs) != 3 {
		t.Errorf("run log has %d entries", len(inst.Runs))
	}
}

// On a composition without the sparse controller an SpMM runs its pruned
// operand as a dense GEMM — cycles and counters equal ConfigureDMM on the same
// operands — as the model offloader always did. It used to fail with
// "RunSpMM requires the sparse controller".
func TestSpMMOnDenseCompositionsRunsAsGEMM(t *testing.T) {
	A := randAPITensor(1, 0.5, 8, 16)
	B := randAPITensor(2, 0, 16, 8)
	for _, hw := range []Hardware{MAERILike(64, 16), TPULike(64), SNAPEALike(64, 16)} {
		run := func(configure func(*Instance)) *Run {
			inst, err := CreateInstance(hw)
			if err != nil {
				t.Fatal(err)
			}
			inst.EnableSelfCheck()
			configure(inst)
			inst.ConfigureData(A, B)
			_, r, err := inst.RunOperation()
			if err != nil {
				t.Fatalf("%s: %v", hw.Name, err)
			}
			return r
		}
		sp := run(func(s *Instance) { s.ConfigureSpMM(LargestFilterFirst) })
		dmm := run((*Instance).ConfigureDMM)
		if sp.Cycles != dmm.Cycles || !reflect.DeepEqual(sp.Counters, dmm.Counters) {
			t.Errorf("%s: spmm %d cycles %v, dmm %d cycles %v", hw.Name, sp.Cycles, sp.Counters, dmm.Cycles, dmm.Counters)
		}
	}
}

func TestConfigureLinearFlow(t *testing.T) {
	inst, err := CreateInstance(MAERILike(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	const out, in, batch = 6, 20, 3
	if err := inst.ConfigureLinear(out, in, batch); err != nil {
		t.Fatal(err)
	}
	W := randAPITensor(3, 0, out, in)
	X := randAPITensor(4, 0, batch, in)
	inst.ConfigureData(W, X)
	got, run, err := inst.RunOperation()
	if err != nil {
		t.Fatal(err)
	}
	// Reference: Y = W·Xᵀ, i.e. got should be (out × batch).
	want, _ := tensor.MatMul(W, tensor.Transpose(X))
	if d := maxRelDiff(got, want); d > 1e-3 {
		t.Errorf("linear output differs by %g", d)
	}
	if run.M == 0 {
		t.Error("run dims empty")
	}
	if err := inst.ConfigureLinear(0, 1, 1); err == nil {
		t.Error("zero out accepted")
	}
	badW := NewTensor(out, in+1)
	inst.ConfigureLinear(out, in, batch)
	inst.ConfigureData(badW, X)
	if _, _, err := inst.RunOperation(); err == nil {
		t.Error("mis-sized weights accepted")
	}
}

func TestConfigureTileViaInstructionSet(t *testing.T) {
	inst, err := CreateInstance(MAERILike(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	cs := ConvShape{R: 3, S: 3, C: 2, G: 1, K: 4, N: 1, X: 6, Y: 6, Stride: 1, Padding: 1}
	if err := inst.ConfigureCONV(cs); err != nil {
		t.Fatal(err)
	}
	inst.ConfigureTile(Tile{
		TR: 3, TS: 3, TC: 1, TG: 1, TK: 2, TN: 1, TXp: 1, TYp: 2,
		VNSize: 9, NumVNs: 4, Folds: 2, UsedMultipliers: 36,
	})
	in := randAPITensor(5, 0, 1, 2, 6, 6)
	w := randAPITensor(6, 0, 4, 2, 3, 3)
	inst.ConfigureData(w, in)
	got, _, err := inst.RunOperation()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tensor.Conv2D(in, w, cs)
	if d := maxRelDiff(got, want); d > 1e-3 {
		t.Errorf("tiled CONV differs by %g", d)
	}
	// The tile is one-shot: the next run uses the mapper again.
	inst.ConfigureData(w, in)
	if _, _, err := inst.RunOperation(); err != nil {
		t.Fatalf("mapper fallback after one-shot tile: %v", err)
	}
}

func TestConfigureMaxPoolErrors(t *testing.T) {
	inst, err := CreateInstance(MAERILike(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ConfigureMaxPool(0, 1, 0); err == nil {
		t.Error("zero window accepted")
	}
	if err := inst.ConfigureMaxPool(2, 2, -1); err == nil {
		t.Error("negative padding accepted")
	}
	if err := inst.ConfigureMaxPool(9, 2, 0); err != nil {
		t.Fatal(err)
	}
	inst.ConfigureData(nil, NewTensor(1, 1, 4, 4))
	if _, _, err := inst.RunOperation(); err == nil {
		t.Error("pool window larger than the input accepted")
	}
}

// Regression: integer division truncates toward zero, so a window that
// overhung a 2×2 input by less than a stride came back as a 1×1 output, and a
// padding of a whole window gave outputs whose window held padding only.
func TestMaxPoolRejectsWindowsPastTheInput(t *testing.T) {
	inst, err := CreateInstance(MAERILike(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][3]int{{3, 2, 0}, {2, 1, 2}} {
		if err := inst.ConfigureMaxPool(p[0], p[1], p[2]); err != nil {
			t.Fatal(err)
		}
		inst.ConfigureData(nil, NewTensor(1, 1, 2, 2))
		if out, _, err := inst.RunOperation(); err == nil {
			t.Errorf("window %d stride %d padding %d over a 2×2 input accepted, output %v", p[0], p[1], p[2], out.Shape())
		}
	}
}

func TestSNAPEAPresetThroughAPI(t *testing.T) {
	inst, err := CreateInstance(SNAPEALike(64, 64))
	if err != nil {
		t.Fatal(err)
	}
	cs := ConvShape{R: 3, S: 3, C: 4, G: 1, K: 4, N: 1, X: 8, Y: 8, Stride: 1, Padding: 1}
	if err := inst.ConfigureCONV(cs); err != nil {
		t.Fatal(err)
	}
	in := randAPITensor(7, 0, 1, 4, 8, 8)
	in.Apply(func(v float32) float32 { // non-negative inputs (exact mode)
		if v < 0 {
			return 0
		}
		return v
	})
	w := randAPITensor(8, 0.5, 4, 4, 3, 3)
	inst.ConfigureData(w, in)
	got, run, err := inst.RunOperation()
	if err != nil {
		t.Fatal(err)
	}
	if run.Counters["snapea.cuts"] == 0 {
		t.Error("no early cuts through the API path")
	}
	// Post-ReLU equality with the reference.
	want, _ := tensor.Conv2D(in, w, cs)
	relu := func(t *Tensor) {
		t.Apply(func(v float32) float32 {
			if v < 0 {
				return 0
			}
			return v
		})
	}
	relu(got)
	relu(want)
	if d := maxRelDiff(got, want); d > 1e-3 {
		t.Errorf("SNAPEA post-relu differs by %g", d)
	}
}
