package stonne

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/sim"
)

// directEntry is execute's decision table written out by architecture name:
// the engine entry an operation must reach on that composition.
func directEntry(acc *engine.Accelerator, arch string, op operation) (*Tensor, *Run, error) {
	conv := op.kind == opCONV
	switch {
	case conv && op.tile != nil:
		return acc.RunConvTiled(op.inputs, op.weights, op.conv, op.layer, *op.tile)
	case conv && arch == "snapea":
		return acc.RunSNAPEAConv(op.inputs, op.weights, op.conv, op.layer, op.cut)
	case conv && arch == "sigma":
		return acc.RunConvScheduled(op.inputs, op.weights, op.conv, op.layer, op.policy)
	case conv:
		return acc.RunConv(op.inputs, op.weights, op.conv, op.layer)
	case arch == "sigma":
		pol := op.policy
		return acc.RunSpMM(op.weights, op.inputs, op.layer, &pol)
	default:
		return acc.RunGEMM(op.weights, op.inputs, op.layer)
	}
}

// Every registered arch × {conv, conv with a tile, DMM, SpMM} × {NS, LFF} ×
// {cut, no cut}: execute's output and run (energy applied) equal a direct
// call of the entry the decision table names, and a refusal stays one.
func TestExecuteDecisionTable(t *testing.T) {
	// Twelve filters of uneven density, so LFF packs the sparse fabric's
	// rounds differently from NS.
	cs := ConvShape{R: 3, S: 3, C: 2, G: 1, K: 12, N: 1, X: 6, Y: 6, Stride: 1, Padding: 1}
	tile := Tile{TR: 3, TS: 3, TC: 1, TG: 1, TK: 2, TN: 1, TXp: 1, TYp: 2,
		VNSize: 9, NumVNs: 4, Folds: 2, UsedMultipliers: 36}
	in := randAPITensor(11, 0, 1, 2, 6, 6)
	in.Apply(func(v float32) float32 { return max(v, 0) }) // post-ReLU
	w := randAPITensor(12, 0.5, 12, 2, 3, 3)
	for k := range 6 {
		clear(w.Data()[k*18 : k*18+8])
	}
	A, B := randAPITensor(13, 0.5, 8, 16), randAPITensor(14, 0, 16, 8)
	ops := []operation{
		{kind: opCONV, layer: "conv", weights: w, inputs: in, conv: cs},
		{kind: opCONV, layer: "tiled", weights: w, inputs: in, conv: cs, tile: &tile},
		{kind: opDMM, layer: "dmm", weights: A, inputs: B},
		{kind: opSpMM, layer: "spmm", weights: A, inputs: B},
	}
	for _, arch := range sim.Names() {
		hw, err := sim.PresetHW(arch, 64, 16)
		if err != nil {
			t.Fatal(err)
		}
		convCycles := map[bool]uint64{}       // by cut
		polCycles := map[SchedPolicy]uint64{} // by policy
		for _, base := range ops {
			for _, pol := range []SchedPolicy{NoScheduling, LargestFilterFirst} {
				for _, cut := range []bool{true, false} {
					op := base
					op.policy, op.cut = pol, cut
					name := fmt.Sprintf("%s/%s/%v/cut=%v", arch, op.layer, pol, cut)
					inst, err := CreateInstance(hw)
					if err != nil {
						t.Fatal(err)
					}
					got, gotRun, gotErr := inst.execute(op)
					acc, err := engine.New(hw)
					if err != nil {
						t.Fatal(err)
					}
					want, wantRun, wantErr := directEntry(acc, arch, op)
					if op.tile != nil && arch != "maeri" && wantErr == nil {
						t.Fatalf("%s: a tile on a composition other than the flexible dense one ran", name)
					}
					if wantErr != nil {
						if gotErr == nil || errors.Is(gotErr, config.ErrRefused) != errors.Is(wantErr, config.ErrRefused) {
							t.Errorf("%s: engine error %v, execute %v", name, wantErr, gotErr)
						}
						if len(inst.Runs) != 0 {
							t.Errorf("%s: a refused op was logged", name)
						}
						continue
					}
					if gotErr != nil {
						t.Errorf("%s: %v", name, gotErr)
						continue
					}
					energy.DefaultTable().Apply(wantRun, &hw)
					if !reflect.DeepEqual(gotRun, wantRun) {
						t.Errorf("%s: run\n%+v\nwant\n%+v", name, gotRun, wantRun)
					}
					if !slices.Equal(got.Shape(), want.Shape()) || !slices.Equal(got.Data(), want.Data()) {
						t.Errorf("%s: output differs from the direct call", name)
					}
					if len(inst.Runs) != 1 || inst.Runs[0] != gotRun {
						t.Errorf("%s: run log %v", name, inst.Runs)
					}
					if op.kind == opCONV && op.tile == nil {
						convCycles[cut], polCycles[pol] = gotRun.Cycles, gotRun.Cycles
					}
				}
			}
		}
		if arch == "snapea" && convCycles[true] >= convCycles[false] {
			t.Errorf("snapea: the cut saved no cycles (%d with, %d without)", convCycles[true], convCycles[false])
		}
		if arch == "sigma" && polCycles[NoScheduling] == polCycles[LargestFilterFirst] {
			t.Errorf("sigma: LFF ran the conv in the same %d cycles as NS", polCycles[NoScheduling])
		}
	}
}
