package stonne

import (
	"math"
	"testing"
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
	} {
		checked, err := tc.op.Check()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Check() = %v, want ok=%v", tc.name, err, tc.ok)
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
