package stonne

import (
	"math"
	"testing"

	"repro/internal/dnn"
	"repro/internal/tensor"
)

// smallCNN is a compact conv net exercising every offloaded kind.
func smallCNN(t *testing.T) (*Model, *Weights, *Tensor) {
	t.Helper()
	m := &dnn.Model{
		Name: "smallcnn", Short: "T", Sparsity: 0.5, InputC: 3, InputXY: 16,
		Layers: []dnn.Layer{
			{Name: "conv1", Kind: dnn.Conv, Class: dnn.ClassC,
				Conv: tensor.ConvShape{R: 3, S: 3, C: 3, G: 1, K: 8, N: 1, X: 16, Y: 16, Stride: 1, Padding: 1}},
			{Name: "relu1", Kind: dnn.ReLU},
			{Name: "pool1", Kind: dnn.MaxPool, Pool: dnn.PoolShape{Window: 2, Stride: 2}},
			{Name: "conv2", Kind: dnn.Conv, Class: dnn.ClassC,
				Conv: tensor.ConvShape{R: 3, S: 3, C: 8, G: 1, K: 8, N: 1, X: 8, Y: 8, Stride: 1, Padding: 1}},
			{Name: "relu2", Kind: dnn.ReLU},
			{Name: "flatten", Kind: dnn.Flatten},
			{Name: "fc", Kind: dnn.Linear, In: 8 * 8 * 8, Out: 10},
			{Name: "softmax", Kind: dnn.Softmax},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	w := InitWeights(m, 42)
	if err := w.Prune(m.Sparsity); err != nil {
		t.Fatal(err)
	}
	return m, w, RandomInput(m, 7)
}

func maxRelDiff(a, b *Tensor) float64 {
	ad, bd := a.Data(), b.Data()
	worst := 0.0
	for i := range ad {
		diff := math.Abs(float64(ad[i]) - float64(bd[i]))
		scale := math.Max(1e-3, math.Abs(float64(bd[i])))
		if d := diff / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// TestFullModelFunctionalValidation is the paper's Section V functional
// validation: the simulated execution's final scores must match the
// native CPU execution on every architecture.
func TestFullModelFunctionalValidation(t *testing.T) {
	m, w, input := smallCNN(t)
	want, err := RunModelNative(m, w, input)
	if err != nil {
		t.Fatal(err)
	}
	for _, hw := range []Hardware{TPULike(64), MAERILike(64, 16), SIGMALike(64, 16)} {
		got, mr, err := RunModel(m, w, input, hw, nil)
		if err != nil {
			t.Fatalf("%s: %v", hw.Name, err)
		}
		if d := maxRelDiff(got, want); d > 1e-3 {
			t.Errorf("%s: output differs from native by %g", hw.Name, d)
		}
		if len(mr.Runs) != 3 { // conv1, conv2, fc
			t.Errorf("%s: %d offloaded runs, want 3", hw.Name, len(mr.Runs))
		}
		if mr.TotalCycles() == 0 {
			t.Errorf("%s: zero total cycles", hw.Name)
		}
		for _, r := range mr.Runs {
			if len(r.Energy) == 0 {
				t.Errorf("%s/%s: energy model not applied", hw.Name, r.Layer)
			}
		}
	}
}

func TestFullModelSNAPEA(t *testing.T) {
	m, w, input := smallCNN(t)
	want, err := RunModelNative(m, w, input)
	if err != nil {
		t.Fatal(err)
	}
	hw := SNAPEALike(64, 64)
	got, mr, err := RunModel(m, w, input, hw, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Final scores pass through a softmax after the fc layer; all conv
	// outputs were ReLU'd, so they match and the scores match too.
	if d := maxRelDiff(got, want); d > 1e-3 {
		t.Errorf("SNAPEA output differs from native by %g", d)
	}
	base, mrBase, err := RunModel(m, w, input, hw, &RunOptions{DisableSNAPEACut: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxRelDiff(base, want); d > 1e-3 {
		t.Errorf("SNAPEA baseline differs from native by %g", d)
	}
	if mr.TotalCycles() >= mrBase.TotalCycles() {
		t.Errorf("SNAPEA cut did not save cycles: %d vs %d", mr.TotalCycles(), mrBase.TotalCycles())
	}
}

func TestInstructionSetFlow(t *testing.T) {
	// The Table III walk-through: CreateInstance → ConfigureCONV →
	// ConfigureData → RunOperation.
	inst, err := CreateInstance(MAERILike(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	cs := ConvShape{R: 3, S: 3, C: 4, G: 1, K: 4, N: 1, X: 8, Y: 8, Stride: 1, Padding: 1}
	if err := inst.ConfigureCONV(cs); err != nil {
		t.Fatal(err)
	}
	rng := dnn.NewRNG(5)
	in := NewTensor(1, 4, 8, 8)
	w := NewTensor(4, 4, 3, 3)
	for _, d := range [][]float32{in.Data(), w.Data()} {
		for i := range d {
			d[i] = float32(rng.Normal())
		}
	}
	inst.ConfigureData(w, in)
	out, run, err := inst.RunOperation()
	if err != nil {
		t.Fatal(err)
	}
	want, err := tensor.Conv2D(in, w, cs)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxRelDiff(out, want); d > 1e-3 {
		t.Errorf("CONV output differs by %g", d)
	}
	if run.Cycles == 0 || len(run.Energy) == 0 {
		t.Error("run statistics incomplete")
	}
	if len(inst.Runs) != 1 {
		t.Errorf("instance logged %d runs, want 1", len(inst.Runs))
	}

	// DMM on the same instance.
	inst.ConfigureDMM()
	A := NewTensor(8, 12)
	B := NewTensor(12, 6)
	for _, d := range [][]float32{A.Data(), B.Data()} {
		for i := range d {
			d[i] = float32(rng.Normal())
		}
	}
	inst.ConfigureData(A, B)
	out2, _, err := inst.RunOperation()
	if err != nil {
		t.Fatal(err)
	}
	want2, _ := tensor.MatMul(A, B)
	if d := maxRelDiff(out2, want2); d > 1e-3 {
		t.Errorf("DMM output differs by %g", d)
	}

	// MaxPool.
	if err := inst.ConfigureMaxPool(2, 2, 0); err != nil {
		t.Fatal(err)
	}
	inst.ConfigureData(nil, in)
	pooled, _, err := inst.RunOperation()
	if err != nil {
		t.Fatal(err)
	}
	if got := pooled.Shape(); got[2] != 4 || got[3] != 4 {
		t.Errorf("pool output shape %v", got)
	}
}

func TestRunOperationErrors(t *testing.T) {
	inst, err := CreateInstance(MAERILike(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := inst.RunOperation(); err == nil {
		t.Error("RunOperation without data accepted")
	}
	inst.ConfigureData(nil, NewTensor(1))
	if _, _, err := inst.RunOperation(); err == nil {
		t.Error("RunOperation without configured op accepted")
	}
}

func TestConfigFileRoundTrip(t *testing.T) {
	hw := SIGMALike(128, 64)
	path := t.TempDir() + "/stonne_hw.cfg"
	if err := hw.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	inst, err := CreateInstanceFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if inst.HW().MSSize != 128 || inst.HW().DNBandwidth != 64 {
		t.Errorf("config round trip lost fields: %+v", inst.HW())
	}
}
