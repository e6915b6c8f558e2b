package stonne

import (
	"math"
	"testing"

	"repro/internal/dnn"
)

// The CLI and the service used to keep their own copies of these checks and
// had drifted: `stonne spmm -sparsity 1.5` pruned everything while the
// service rejected it, and `-policy lff` failed on the CLI only.
func TestSeededOpCheck(t *testing.T) {
	conv := &ConvShape{R: 3, S: 3, C: 4, G: 1, K: 4, N: 1, X: 6, Y: 6, Stride: 1}
	for _, tc := range []struct {
		name string
		op   SeededOp
		ok   bool
	}{
		{"gemm", SeededOp{Op: "gemm", M: 4, N: 4, K: 8}, true},
		{"gemm ignores sparsity", SeededOp{Op: "gemm", M: 4, N: 4, K: 8, Sparsity: 7}, true},
		{"gemm zero dim", SeededOp{Op: "gemm", M: 0, N: 4, K: 8}, false},
		{"spmm", SeededOp{Op: "spmm", M: 4, N: 4, K: 8, Sparsity: 0.5, Policy: "NS"}, true},
		{"spmm all pruned", SeededOp{Op: "spmm", M: 4, N: 4, K: 8, Sparsity: 1}, true},
		{"spmm sparsity above one", SeededOp{Op: "spmm", M: 4, N: 4, K: 8, Sparsity: 1.5}, false},
		{"spmm negative sparsity", SeededOp{Op: "spmm", M: 4, N: 4, K: 8, Sparsity: -0.1}, false},
		{"spmm NaN sparsity", SeededOp{Op: "spmm", M: 4, N: 4, K: 8, Sparsity: math.NaN()}, false},
		{"spmm lowercase policy", SeededOp{Op: "spmm", M: 4, N: 4, K: 8, Policy: " lff "}, true},
		{"spmm unknown policy", SeededOp{Op: "spmm", M: 4, N: 4, K: 8, Policy: "FIFO"}, false},
		{"conv", SeededOp{Op: "conv", Conv: conv}, true},
		{"conv no shape", SeededOp{Op: "conv"}, false},
		{"conv bad tile", SeededOp{Op: "conv", Conv: conv, Tile: &Tile{}}, false},
		{"unknown op", SeededOp{Op: "matmul", M: 4, N: 4, K: 8}, false},
		// Operands and outputs over 1<<24 elements are refused before
		// anything is allocated, the products compared without overflow.
		{"gemm MK over the limit", SeededOp{Op: "gemm", M: 1 << 13, N: 1, K: 1<<11 + 1}, false},
		{"gemm MN over the limit", SeededOp{Op: "gemm", M: 1 << 12, N: 1<<12 + 1, K: 1}, false},
		{"spmm dims MaxInt", SeededOp{Op: "spmm", M: math.MaxInt, N: math.MaxInt, K: 2}, false},
		{"conv input over the limit", SeededOp{Op: "conv", Conv: &ConvShape{R: 1, S: 1, C: 2, G: 1, K: 1, N: 1, X: 4096, Y: 2049, Stride: 4096}}, false},
		{"conv filters over the limit", SeededOp{Op: "conv", Conv: &ConvShape{R: 2, S: 2, C: 2048, G: 1, K: 2049, N: 1, X: 2, Y: 2, Stride: 1}}, false},
		{"conv output over the limit", SeededOp{Op: "conv", Conv: &ConvShape{R: 1, S: 1, C: 1, G: 1, K: 1 << 10, N: 1, X: 1 << 7, Y: 1<<7 + 1, Stride: 1}}, false},
		// Input, filters and output in bounds; the im2col lowering is
		// about 9·10^12 elements, over 1<<26.
		{"conv lowering over the limit", SeededOp{Op: "conv", Conv: &ConvShape{R: 1000, S: 1000, C: 1, G: 1, K: 1, N: 1, X: 4000, Y: 4000, Stride: 1}}, false},
	} {
		checked, err := tc.op.Check()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Check() = %v, want ok=%v", tc.name, err, tc.ok)
			continue // never run an op a bound should have refused
		}
		// The runner takes only what Check returned, and a failed Check
		// returns nothing runnable, so no caller can skip the checks.
		inst, cerr := CreateInstance(SIGMALike(16, 16))
		if cerr != nil {
			t.Fatal(cerr)
		}
		if _, _, rerr := inst.RunSeededOp(checked, 1); (rerr == nil) != tc.ok {
			t.Errorf("%s: RunSeededOp() = %v, want ok=%v", tc.name, rerr, tc.ok)
		}
	}
}

// The conv bounds sit above the paper's workloads: every conv layer of the
// seven Table I models, unscaled, passes Check.
func TestTableIConvsPassCheck(t *testing.T) {
	for _, m := range AllModels() {
		for i := range m.Layers {
			l := &m.Layers[i]
			if l.Kind != dnn.Conv {
				continue
			}
			if _, err := (SeededOp{Op: "conv", Conv: &l.Conv}).Check(); err != nil {
				t.Errorf("%s/%s: %v", m.Name, l.Name, err)
			}
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]SchedPolicy{
		"": NoScheduling, "NS": NoScheduling, "ns": NoScheduling,
		"RDM": RandomScheduling, "rdm": RandomScheduling,
		"LFF": LargestFilterFirst, " lff ": LargestFilterFirst,
	} {
		if got, err := ParsePolicy(in); err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("FIFO"); err == nil {
		t.Error("ParsePolicy(FIFO) succeeded")
	}
}
