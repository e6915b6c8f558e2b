package stonne_test

import (
	"fmt"
	"log"
	"math"

	"repro/internal/dnn"
	"repro/stonne"
)

// The Table III instruction flow: one convolution on a 128-multiplier
// MAERI-like accelerator, operands streamed in from DRAM.
func ExampleInstance_RunOperation() {
	inst, err := stonne.CreateInstance(stonne.MAERILike(128, 64))
	if err != nil {
		log.Fatal(err)
	}
	cs := stonne.ConvShape{R: 3, S: 3, C: 8, G: 1, K: 8, N: 1, X: 12, Y: 12, Stride: 1, Padding: 1}
	if err := inst.ConfigureCONV(cs); err != nil {
		log.Fatal(err)
	}
	weights := stonne.NewTensor(cs.K, cs.C, cs.R, cs.S)
	input := stonne.NewTensor(cs.N, cs.C, cs.X, cs.Y)
	for _, t := range []*stonne.Tensor{weights, input} {
		for i, d := 0, t.Data(); i < len(d); i++ {
			d[i] = float32(i%7) - 3
		}
	}
	inst.ConfigureData(weights, input)
	out, run, err := inst.RunOperation()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("output %v\n", out.Shape())
	fmt.Printf("%s %s: %d cycles, %d multiplications, %.1f%% utilization\n",
		run.Accelerator, run.Op, run.Cycles, run.Counters["mn.mults"], 100*run.Utilization)
	// Output:
	// output [1 8 12 12]
	// MAERI-like CONV: 1326 cycles, 82944 multiplications, 48.9% utilization
}

// The walk-through of Fig. 2: a small model whose Conv2d and Linear layers
// are offloaded to a simulated MAERI-like accelerator while ReLU, pooling
// and softmax run natively, and whose scores are checked against the
// all-native execution.
func ExampleRunModel() {
	model := &stonne.Model{
		Name: "quickstart", Short: "Q", Sparsity: 0.5, InputC: 1, InputXY: 28,
		Layers: []stonne.Layer{
			{Name: "conv1", Kind: dnn.Conv, Class: dnn.ClassC,
				Conv: stonne.ConvShape{R: 5, S: 5, C: 1, G: 1, K: 8, N: 1, X: 28, Y: 28, Stride: 1, Padding: 2}},
			{Name: "relu1", Kind: dnn.ReLU},
			{Name: "pool1", Kind: dnn.MaxPool, Pool: dnn.PoolShape{Window: 2, Stride: 2}},
			{Name: "conv2", Kind: dnn.Conv, Class: dnn.ClassC,
				Conv: stonne.ConvShape{R: 3, S: 3, C: 8, G: 1, K: 16, N: 1, X: 14, Y: 14, Stride: 1, Padding: 1}},
			{Name: "relu2", Kind: dnn.ReLU},
			{Name: "flatten", Kind: dnn.Flatten},
			{Name: "fc", Kind: dnn.Linear, In: 16 * 14 * 14, Out: 10},
			{Name: "softmax", Kind: dnn.Softmax},
		},
	}
	if err := model.Validate(); err != nil {
		log.Fatal(err)
	}
	sm := stonne.SeededModel{Model: model, Seed: 2024, InputSeed: 7}
	weights, err := sm.Weights() // pruned to model.Sparsity
	if err != nil {
		log.Fatal(err)
	}
	input := sm.Input(0)

	simulated, mr, err := stonne.RunModel(model, weights, input, stonne.MAERILike(128, 64), nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range mr.Runs {
		fmt.Printf("%-5s %-4s %5d cycles %5.1f%% util %.4f µJ\n", r.Layer, r.Op, r.Cycles, 100*r.Utilization, r.TotalEnergy())
	}
	fmt.Printf("total %d cycles, %.3f µJ\n", mr.TotalCycles(), mr.TotalEnergy())

	native, err := stonne.RunModelNative(model, weights, input)
	if err != nil {
		log.Fatal(err)
	}
	worst := 0.0
	for i, got := range simulated.Data() {
		worst = math.Max(worst, math.Abs(float64(got-native.Data()[i])))
	}
	fmt.Println("scores match the native run:", worst < 1e-4)
	// Output:
	// conv1 CONV  1354 cycles  90.5% util 0.3751 µJ
	// conv2 CONV  3571 cycles  49.4% util 0.5209 µJ
	// fc    GEMM   676 cycles  36.2% util 0.4593 µJ
	// total 5601 cycles, 1.355 µJ
	// scores match the native run: true
}
