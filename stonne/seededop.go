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
		if err := checkElems("MK operand", maxOperandElems, o.M, o.K); err != nil {
			return CheckedOp{}, err
		}
		if err := checkElems("KN operand", maxOperandElems, o.K, o.N); err != nil {
			return CheckedOp{}, err
		}
		if err := checkElems("MN output", maxOperandElems, o.M, o.N); err != nil {
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
		if err := checkElems("conv input", maxOperandElems, cs.N, cs.C, cs.X, cs.Y); err != nil {
			return CheckedOp{}, err
		}
		if err := checkElems("conv filters", maxOperandElems, cs.K, cs.C/cs.G, cs.R, cs.S); err != nil {
			return CheckedOp{}, err
		}
		if err := checkElems("conv output", maxOperandElems, cs.N, cs.K, cs.OutX(), cs.OutY()); err != nil {
			return CheckedOp{}, err
		}
		if err := checkElems("conv lowering", maxLoweringElems, cs.C/cs.G, cs.R, cs.S, cs.N, cs.OutX(), cs.OutY()); err != nil {
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

// maxLoweringElems bounds a conv's im2col lowering, (C/G·R·S) × (N·X'·Y')
// elements per group: the matrix sigma, tpu and snapea build, and the
// per-filter MAC count every fabric walks. It sits above maxOperandElems
// because the lowering of a full-size Table I layer does (VGG-16 conv1_2:
// 28 901 376 elements).
const maxLoweringElems = 1 << 26

// checkElems refuses an operand whose positive dims multiply to more than
// limit. It compares before it multiplies, so no product overflows; only
// the error keeps a copy of dims, so an accepted op allocates nothing here.
func checkElems(what string, limit int, dims ...int) error {
	n := 1
	for _, d := range dims {
		if d > limit/n {
			return fmt.Errorf("%s %v exceeds the limit of %d elements", what, slices.Clone(dims), limit)
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
	randTensor := func(relu bool, shape ...int) *Tensor {
		t := NewTensor(shape...)
		dnn.FillNormal(rng, t.Data(), relu)
		return t
	}
	switch op.Op {
	case "gemm":
		s.ConfigureDMM()
		s.ConfigureData(randTensor(false, op.M, op.K), randTensor(false, op.K, op.N))
	case "spmm":
		s.ConfigureSpMM(c.pol)
		A := randTensor(false, op.M, op.K)
		pruneTo(A, op.Sparsity)
		s.ConfigureData(A, randTensor(false, op.K, op.N))
	case "conv":
		cs := *op.Conv
		if err := s.ConfigureCONV(cs); err != nil {
			return nil, nil, err
		}
		if op.Tile != nil {
			s.ConfigureTile(*op.Tile)
		}
		w := randTensor(false, cs.K, cs.C/cs.G, cs.R, cs.S)
		s.ConfigureData(w, randTensor(true, cs.N, cs.C, cs.X, cs.Y))
	default: // the zero CheckedOp: Check never ran
		return nil, nil, fmt.Errorf("seeded op %q was not checked", op.Op)
	}
	return s.RunOperation()
}

// SeededModel is one model workload of the user-interface mode (Fig. 2):
// the model with the seeds of its weights and of its inputs. It is the one
// model builder behind `stonne model`, the stonned model job and every
// model figure, so the same three values give the same tensors everywhere.
type SeededModel struct {
	Model     *Model
	Seed      uint64 // weights: InitWeights(Model, Seed)
	InputSeed uint64 // input i: RandomInput(Model, InputSeed+i)
}

// Weights draws the model's weights and prunes them to its Table I
// sparsity.
func (s SeededModel) Weights() (*Weights, error) {
	w := dnn.InitWeights(s.Model, s.Seed)
	if err := w.Prune(s.Model.Sparsity); err != nil {
		return nil, err
	}
	return w, nil
}

// Input draws input i: stream i of a chip run, image i of a sweep.
func (s SeededModel) Input(i int) *Tensor {
	return dnn.RandomInput(s.Model, s.InputSeed+uint64(i))
}

// Inputs draws inputs 0 to n-1.
func (s SeededModel) Inputs(n int) []*Tensor {
	ins := make([]*Tensor, n)
	for i := range ins {
		ins[i] = s.Input(i)
	}
	return ins
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
