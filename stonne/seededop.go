package stonne

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dnn"
)

// SeededOp is one gemm/spmm/conv of the user-interface mode (Fig. 2): the
// operation is named by its shape alone and its operands are derived from a
// seed. It is the single definition behind `stonne gemm|spmm|conv` and the
// stonned job of the same spelling, so the two share results byte for byte.
type SeededOp struct {
	Op string // "gemm", "spmm" or "conv"

	M, N, K int // gemm/spmm: MK × KN

	Conv *ConvShape // conv
	Tile *Tile      // conv: explicit tile (nil = mapper's choice)

	Sparsity float64 // spmm: fraction of the MK operand pruned to zero
	Policy   string  // spmm: NS | RDM | LFF ("" = NS)
}

// ParsePolicy reads a filter-scheduling policy name, ignoring case and
// surrounding space; the empty string is NS.
func ParsePolicy(s string) (SchedPolicy, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "", "NS":
		return NoScheduling, nil
	case "RDM":
		return RandomScheduling, nil
	case "LFF":
		return LargestFilterFirst, nil
	default:
		return NoScheduling, fmt.Errorf("unknown policy %q (want NS, RDM or LFF)", s)
	}
}

// A CheckedOp is a SeededOp that passed Check, with its policy parsed. It is
// all RunSeededOp accepts, so an op is validated in one place, once, however
// many seeds it then runs with.
type CheckedOp struct {
	op  SeededOp
	pol SchedPolicy
}

// Check reports why the op cannot run, before any simulator is built.
func (o SeededOp) Check() (CheckedOp, error) {
	var pol SchedPolicy
	switch o.Op {
	case "gemm", "spmm":
		if o.M <= 0 || o.N <= 0 || o.K <= 0 {
			return CheckedOp{}, fmt.Errorf("%s needs positive m, n, k (got %d, %d, %d)", o.Op, o.M, o.N, o.K)
		}
		if err := checkElems("MK operand", o.M, o.K); err != nil {
			return CheckedOp{}, err
		}
		if err := checkElems("KN operand", o.K, o.N); err != nil {
			return CheckedOp{}, err
		}
		if err := checkElems("MN output", o.M, o.N); err != nil {
			return CheckedOp{}, err
		}
		if o.Op == "spmm" {
			if !(o.Sparsity >= 0 && o.Sparsity <= 1) {
				return CheckedOp{}, fmt.Errorf("sparsity %g out of [0,1]", o.Sparsity)
			}
			var err error
			if pol, err = ParsePolicy(o.Policy); err != nil {
				return CheckedOp{}, err
			}
		}
	case "conv":
		if o.Conv == nil {
			return CheckedOp{}, fmt.Errorf("conv needs a conv shape")
		}
		cs := o.Conv
		if err := cs.Validate(); err != nil {
			return CheckedOp{}, err
		}
		if err := checkElems("conv input", cs.N, cs.C, cs.X, cs.Y); err != nil {
			return CheckedOp{}, err
		}
		if err := checkElems("conv filters", cs.K, cs.C/cs.G, cs.R, cs.S); err != nil {
			return CheckedOp{}, err
		}
		if err := checkElems("conv output", cs.N, cs.K, cs.OutX(), cs.OutY()); err != nil {
			return CheckedOp{}, err
		}
		if o.Tile != nil {
			if err := o.Tile.Validate(*o.Conv); err != nil {
				return CheckedOp{}, err
			}
		}
	default:
		return CheckedOp{}, fmt.Errorf("unknown seeded op %q (want gemm, spmm or conv)", o.Op)
	}
	return CheckedOp{op: o, pol: pol}, nil
}

// maxOperandElems bounds every operand and the output of a seeded op, in
// elements: 1<<24 float32 values are 64 MiB each, far past any operation of
// the paper, and a bound a single request cannot get round by asking for
// tens of GB.
const maxOperandElems = 1 << 24

// checkElems refuses an operand whose positive dims multiply to more than
// maxOperandElems. It compares before it multiplies, so no product
// overflows; only the error keeps a copy of dims, so an accepted op
// allocates nothing here.
func checkElems(what string, dims ...int) error {
	n := 1
	for _, d := range dims {
		if d > maxOperandElems/n {
			return fmt.Errorf("%s %v exceeds the limit of %d elements", what, slices.Clone(dims), maxOperandElems)
		}
		n *= d
	}
	return nil
}

// RunSeededOp derives the operands of a checked op from seed and simulates
// it on the instance. Operand values are standard normal draws from one
// dnn.NewRNG(seed) stream in operand order (conv inputs rectified, as a
// post-ReLU activation would be).
func (s *Instance) RunSeededOp(c CheckedOp, seed uint64) (*Tensor, *Run, error) {
	op := c.op
	rng := dnn.NewRNG(seed)
	randTensor := func(shape ...int) *Tensor {
		t := NewTensor(shape...)
		for i, d := 0, t.Data(); i < len(d); i++ {
			d[i] = float32(rng.Normal())
		}
		return t
	}
	switch op.Op {
	case "gemm":
		s.ConfigureDMM()
		s.ConfigureData(randTensor(op.M, op.K), randTensor(op.K, op.N))
	case "spmm":
		s.ConfigureSpMM(c.pol)
		A := randTensor(op.M, op.K)
		pruneTo(A, op.Sparsity)
		s.ConfigureData(A, randTensor(op.K, op.N))
	case "conv":
		cs := *op.Conv
		if err := s.ConfigureCONV(cs); err != nil {
			return nil, nil, err
		}
		if op.Tile != nil {
			s.ConfigureTile(*op.Tile)
		}
		w := randTensor(cs.K, cs.C/cs.G, cs.R, cs.S)
		in := NewTensor(cs.N, cs.C, cs.X, cs.Y)
		for i, d := 0, in.Data(); i < len(d); i++ {
			v := rng.Normal()
			if v < 0 {
				v = 0
			}
			d[i] = float32(v)
		}
		s.ConfigureData(w, in)
	default: // the zero CheckedOp: Check never ran
		return nil, nil, fmt.Errorf("seeded op %q was not checked", op.Op)
	}
	return s.RunOperation()
}

// pruneTo zeroes each element with probability sparsity, drawn from a fixed
// stream: the zero pattern depends on the shape and sparsity, not the seed.
func pruneTo(t *Tensor, sparsity float64) {
	d := t.Data()
	rng := dnn.NewRNG(0x9981)
	for i := range d {
		if rng.Float64() < sparsity {
			d[i] = 0
		}
	}
}
