package stonne

import (
	"errors"
	"fmt"

	"repro/internal/check"
)

// CheckReport is the differential verification report produced when
// self-checking is enabled: the simulated output compared element-wise
// against the CPU reference under the architecture's numeric contract.
type CheckReport = check.Report

// EnableSelfCheck makes every subsequent RunOperation verify its output
// tensor against the CPU reference (tensor.MatMul / tensor.Conv2D) under
// the architecture's numeric contract — bit-exact where the engine
// accumulates in reference order, bounded relative error where the
// reduction tree reorders the sum. A failed check fails the operation.
// MaxPool runs natively and is not checked.
func (s *Instance) EnableSelfCheck() { s.selfCheck = true }

// LastCheck returns the verification report of the most recent checked
// operation, or nil if self-checking is disabled or nothing has run yet.
func (s *Instance) LastCheck() *CheckReport { return s.lastCheck }

// VerifyGEMM, VerifySpMM and VerifyConv expose the differential verifiers
// directly, for callers that hold their own simulated outputs rather than
// running through an Instance.
var (
	VerifyGEMM = check.VerifyGEMM
	VerifySpMM = check.VerifySpMM
	VerifyConv = check.VerifyConv
)

// errSelfCheck wraps every error verifyRun returns: the operation ran, and
// its output either failed the tolerance or (wrong shape, nil tensor) could
// not be compared at all. Callers tell it apart from a run the engine
// refused.
var errSelfCheck = errors.New("stonne: self-check")

// verifyRun dispatches the configured operation to the matching
// differential verifier. gA/gB are the exact GEMM operands handed to the
// engine (already reshaped/transposed for linear layers).
func (s *Instance) verifyRun(out, gA, gB *Tensor) error {
	var (
		rep *check.Report
		err error
	)
	switch s.op {
	case opCONV:
		rep, err = check.VerifyConv(s.hw, s.inputs, s.weights, s.conv, out)
	case opDMM, opLinear:
		rep, err = check.VerifyGEMM(s.hw, gA, gB, out)
	case opSpMM:
		rep, err = check.VerifySpMM(s.hw, gA, gB, out)
	default:
		return nil // MaxPool etc. execute natively; nothing to diff against
	}
	if err != nil {
		return fmt.Errorf("%w: %w", errSelfCheck, err)
	}
	s.lastCheck = rep
	if rerr := rep.Err(); rerr != nil {
		return fmt.Errorf("%w failed: %w", errSelfCheck, rerr)
	}
	return nil
}
