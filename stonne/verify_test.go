package stonne

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/check"
)

// fillDet populates a tensor with a small deterministic pattern mixing
// signs and magnitudes.
func fillDet(t *Tensor, phase int) {
	d := t.Data()
	for i := range d {
		d[i] = float32((i*7+phase*13)%11-5) / 4
	}
}

func TestSelfCheckVerifiesOperations(t *testing.T) {
	// DMM on the reordered-sum flexible fabric.
	inst, err := CreateInstance(MAERILike(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	inst.EnableSelfCheck()
	if inst.LastCheck() != nil {
		t.Error("LastCheck non-nil before any run")
	}
	A, B := NewTensor(9, 13), NewTensor(13, 7)
	fillDet(A, 1)
	fillDet(B, 2)
	inst.ConfigureDMM()
	inst.ConfigureData(A, B)
	if _, _, err := inst.RunOperation(); err != nil {
		t.Fatal(err)
	}
	rep := inst.LastCheck()
	if rep == nil || !rep.OK() {
		t.Fatalf("DMM self-check: %v", rep)
	}

	// Conv on the same instance (activations non-negative, post-ReLU).
	cs := ConvShape{R: 3, S: 3, C: 4, G: 1, K: 4, N: 1, X: 8, Y: 8, Stride: 1, Padding: 1}
	in, w := NewTensor(1, 4, 8, 8), NewTensor(4, 4, 3, 3)
	fillDet(in, 3)
	for i, d := 0, in.Data(); i < len(d); i++ {
		if d[i] < 0 {
			d[i] = -d[i]
		}
	}
	fillDet(w, 4)
	if err := inst.ConfigureCONV(cs); err != nil {
		t.Fatal(err)
	}
	inst.ConfigureData(w, in)
	if _, _, err := inst.RunOperation(); err != nil {
		t.Fatal(err)
	}
	if rep := inst.LastCheck(); rep == nil || !rep.OK() || rep.Op != "CONV" {
		t.Fatalf("conv self-check: %v", rep)
	}

	// SpMM on the sparse composition.
	sp, err := CreateInstance(SIGMALike(64, 32))
	if err != nil {
		t.Fatal(err)
	}
	sp.EnableSelfCheck()
	MK := NewTensor(8, 16)
	fillDet(MK, 5)
	for i, d := 0, MK.Data(); i < len(d); i++ {
		if i%3 != 0 {
			d[i] = 0
		}
	}
	KN := NewTensor(16, 6)
	fillDet(KN, 6)
	sp.ConfigureSpMM(LargestFilterFirst)
	sp.ConfigureData(MK, KN)
	if _, _, err := sp.RunOperation(); err != nil {
		t.Fatal(err)
	}
	if rep := sp.LastCheck(); rep == nil || !rep.OK() {
		t.Fatalf("SpMM self-check: %v", rep)
	}
}

// A corrupted simulation result must fail the operation with a report that
// names the worst offender, proving the check is actually wired in.
func TestSelfCheckCatchesCorruption(t *testing.T) {
	inst, err := CreateInstance(TPULike(16))
	if err != nil {
		t.Fatal(err)
	}
	A, B := NewTensor(4, 4), NewTensor(4, 4)
	fillDet(A, 1)
	fillDet(B, 2)
	inst.ConfigureDMM()
	inst.ConfigureData(A, B)
	out, _, err := inst.RunOperation() // unchecked run to get a real output
	if err != nil {
		t.Fatal(err)
	}
	// Re-verify through the public path with a flipped element: the exact
	// contract of the systolic array must flag a single-ULP perturbation.
	inst.EnableSelfCheck()
	inst.ConfigureData(A, B)
	if _, _, err := inst.RunOperation(); err != nil {
		t.Fatalf("clean rerun failed: %v", err)
	}
	_ = out
	bad := NewTensor(4, 4)
	copy(bad.Data(), out.Data())
	bad.Data()[5] += 0.25
	rep, err := check.VerifyGEMM(inst.HW(), A, B, bad)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("corrupted output passed verification")
	}
	if !strings.Contains(rep.String(), "worst") {
		t.Errorf("report lacks worst-offender detail: %s", rep)
	}
}

// An output the comparison cannot read (the batched conv that once came back
// as an N=1 tensor) leaves no report, so the error itself must say the op ran:
// the fuzzers fail on errSelfCheck and pass every other error.
func TestSelfCheckUncomparableOutput(t *testing.T) {
	inst, err := CreateInstance(TPULike(16))
	if err != nil {
		t.Fatal(err)
	}
	op := operation{kind: opDMM, weights: NewTensor(4, 4), inputs: NewTensor(4, 4)}
	for _, out := range []*Tensor{NewTensor(4, 3), nil} {
		err := inst.verifyRun(op, out)
		if !errors.Is(err, errSelfCheck) {
			t.Errorf("output %v: error %v does not wrap errSelfCheck", out, err)
		}
		if inst.LastCheck() != nil {
			t.Errorf("output %v: report set for an uncomparable output", out)
		}
	}
}
