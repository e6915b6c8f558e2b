package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// chipOpWorkload runs one op (GEMM or conv) on an accelerator built from the
// chip's core — the minimal workload for differential parity.
type chipOpWorkload struct {
	acc    *Accelerator
	op     string
	gemmA  *tensor.Tensor
	gemmB  *tensor.Tensor
	convIn *tensor.Tensor
	convW  *tensor.Tensor
	cs     tensor.ConvShape
	out    *tensor.Tensor
}

func (w *chipOpWorkload) Streams() int { return 1 }
func (w *chipOpWorkload) Stages() int  { return 1 }
func (w *chipOpWorkload) RunStage(_, _, _ int) ([]*stats.Run, int, error) {
	var (
		out *tensor.Tensor
		run *stats.Run
		err error
	)
	if w.op == "gemm" {
		out, run, err = w.acc.RunGEMM(w.gemmA, w.gemmB, "chip-parity")
	} else {
		out, run, err = w.acc.RunConv(w.convIn, w.convW, w.cs, "chip-parity")
	}
	if err != nil {
		return nil, 0, err
	}
	w.out = out
	return []*stats.Run{run}, out.Len(), nil
}

// TestChipSingleCoreParity is the differential regression the tentpole
// promises: a 1-core sim.Chip drives each registered architecture, built from
// the chip's core description, and must be byte-identical to running the same
// op on a bare runner — output bits, cycles, every counter, and the full
// cycle breakdown. A failure here means the chip composition leaked into
// the single-core path.
func TestChipSingleCoreParity(t *testing.T) {
	archs := sim.List()
	if len(archs) != 4 {
		t.Fatalf("registry lists %d architectures, want 4", len(archs))
	}
	cs := tensor.ConvShape{R: 3, S: 3, C: 4, G: 1, K: 4, N: 1, X: 8, Y: 8, Stride: 1, Padding: 1}
	gemmA := randTensor(0x11, 6, 8)
	gemmB := randTensor(0x22, 8, 5)
	convIn := randTensor(0x33, 1, 4, 8, 8)
	convW := randTensor(0x44, 4, 4, 3, 3)

	for _, arch := range archs {
		hw := arch.Preset(64, 16)
		for _, op := range []string{"gemm", "conv"} {
			bare, err := New(hw)
			if err != nil {
				t.Fatalf("%s: New: %v", arch.Name, err)
			}
			var wantOut *tensor.Tensor
			var wantRun *stats.Run
			if op == "gemm" {
				wantOut, wantRun, err = bare.RunGEMM(gemmA, gemmB, "chip-parity")
			} else {
				wantOut, wantRun, err = bare.RunConv(convIn, convW, cs, "chip-parity")
			}
			if err != nil {
				t.Fatalf("%s %s: bare run: %v", arch.Name, op, err)
			}

			chip, err := sim.NewChip(sim.ChipConfig{Cores: []config.Hardware{hw}})
			if err != nil {
				t.Fatalf("%s: NewChip: %v", arch.Name, err)
			}
			acc, err := New(chip.Core(0))
			if err != nil {
				t.Fatalf("%s: New: %v", arch.Name, err)
			}
			w := &chipOpWorkload{acc: acc, op: op, gemmA: gemmA, gemmB: gemmB, convIn: convIn, convW: convW, cs: cs}
			cr, err := chip.Run(context.Background(), w)
			if err != nil {
				t.Fatalf("%s %s: chip run: %v", arch.Name, op, err)
			}

			if !reflect.DeepEqual(w.out.Data(), wantOut.Data()) {
				t.Errorf("%s %s: 1-core chip output bytes differ from the bare runner", arch.Name, op)
			}
			if cr.Total.Cycles != wantRun.Cycles {
				t.Errorf("%s %s: chip cycles %d, bare %d", arch.Name, op, cr.Total.Cycles, wantRun.Cycles)
			}
			if !reflect.DeepEqual(cr.Total.Counters, wantRun.Counters) {
				t.Errorf("%s %s: chip counters differ from the bare runner\nchip: %v\nbare: %v",
					arch.Name, op, cr.Total.Counters, wantRun.Counters)
			}
			if !reflect.DeepEqual(cr.Total.Breakdown, wantRun.Breakdown) {
				t.Errorf("%s %s: chip cycle breakdown differs from the bare runner", arch.Name, op)
			}
			if cr.MakespanCycles != wantRun.Cycles {
				t.Errorf("%s %s: 1-core makespan %d != op cycles %d", arch.Name, op, cr.MakespanCycles, wantRun.Cycles)
			}
		}
	}
}
