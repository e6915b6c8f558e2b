package stonne

import (
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
