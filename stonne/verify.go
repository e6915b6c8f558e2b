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

// errSelfCheck wraps every error verifyRun returns: the operation ran, and
// its output either failed the tolerance or (wrong shape, nil tensor) could
// not be compared at all. Callers tell it apart from a run the engine
// refused.
var errSelfCheck = errors.New("stonne: self-check")

// verifyRun compares the output of an executed operation with the matching
// differential verifier, on the exact operands the engine ran (a linear
// layer's already reshaped and transposed).
func (s *Instance) verifyRun(op operation, out *Tensor) error {
	var (
		rep *check.Report
		err error
	)
	switch op.kind {
	case opCONV:
		rep, err = check.VerifyConv(s.hw, op.inputs, op.weights, op.conv, out)
	case opDMM, opLinear:
		rep, err = check.VerifyGEMM(s.hw, op.weights, op.inputs, out)
	case opSpMM:
		rep, err = check.VerifySpMM(s.hw, op.weights, op.inputs, out)
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
