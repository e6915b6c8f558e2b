// Package stonne is the public API of the simulator — the Go analogue of
// the STONNE API instruction set of Table III plus the deep-learning
// front-end integration of Figure 2. A typical flow mirrors the paper's
// walk-through example:
//
//	inst, _ := stonne.CreateInstance(stonne.MAERILike(256, 128))
//	inst.ConfigureCONV(shape)           // ConfigureCONV
//	inst.ConfigureData(weights, input)  // ConfigureData
//	out, run, _ := inst.RunOperation()  // RunOperation
//
// or, one level up, a whole model is executed with RunModel, which drives
// the layer-by-layer offload loop of Figure 2(b): compute-intensive layers
// run on the simulated accelerator, everything else runs natively, and the
// final scores are bit-compared against the native execution for
// functional validation.
package stonne

import (
	"fmt"

	"repro/internal/comp/names"
	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/mapper"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Re-exported types: the configuration, tensor and statistics vocabulary a
// user needs to drive the simulator.
type (
	// Hardware is the accelerator description (stonne_hw.cfg).
	Hardware = config.Hardware
	// Tensor is the dense tensor type operands are passed as.
	Tensor = tensor.Tensor
	// ConvShape is the Layer(R,S,C,G,K,N,X',Y') descriptor.
	ConvShape = tensor.ConvShape
	// Tile is the dense-controller tile descriptor.
	Tile = mapper.Tile
	// Run is the per-operation statistics record.
	Run = stats.Run
	// ModelRun aggregates a full-model simulation.
	ModelRun = stats.ModelRun
	// SchedPolicy selects the sparse filter-scheduling strategy.
	SchedPolicy = sched.Policy
	// EnergyTable is the table-based energy model.
	EnergyTable = energy.Table
)

// Scheduling policies (use case 3).
const (
	NoScheduling       = sched.NS
	RandomScheduling   = sched.RDM
	LargestFilterFirst = sched.LFF
)

// Preset configurations of Table IV.
var (
	// TPULike is the rigid output-stationary systolic composition.
	TPULike = config.TPULike
	// MAERILike is the flexible dense composition.
	MAERILike = config.MAERILike
	// SIGMALike is the flexible sparse composition.
	SIGMALike = config.SIGMALike
	// SNAPEALike is the data-dependent early-termination composition.
	SNAPEALike = config.SNAPEALike
)

// NewTensor allocates a zero tensor.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// opKind is the kind of a configured operation.
type opKind int

const (
	opNone opKind = iota
	opCONV
	opLinear
	opDMM
	opSpMM
	opMaxPool
)

// operation is one operation as it meets the accelerator: RunOperation
// builds it from the Configure* and ConfigureData calls, a model layer
// offloaded by RunModel or RunModelChip builds it from the layer. For a
// convolution weights are the KCRS filters and inputs the NCHW activations;
// for a GEMM or SpMM the product is weights (M×K) × inputs (K×N).
type operation struct {
	kind            opKind
	layer           string
	weights, inputs *Tensor
	conv            ConvShape
	pool            dnn.PoolShape
	tile            *Tile       // conv: explicit tile (nil = the mapper's)
	policy          SchedPolicy // sparse controller: filter scheduling
	cut             bool        // SNAPEA: early termination on
}

// Instance is one simulated accelerator — what CreateInstance returns in
// Table III. It is not safe for concurrent use; create one instance per
// goroutine (they are cheap).
type Instance struct {
	hw  Hardware
	acc *engine.Accelerator
	tab EnergyTable

	op  operation // as the Configure* and ConfigureData calls left it
	lin struct{ out, in, batch int }

	selfCheck bool
	lastCheck *CheckReport

	// Runs is the log of every operation executed on this instance.
	Runs []*Run
}

// CreateInstance builds an accelerator instance from a hardware
// configuration (Table III: CreateInstance).
func CreateInstance(hw Hardware) (*Instance, error) {
	acc, err := engine.New(hw)
	if err != nil {
		return nil, err
	}
	return &Instance{hw: hw, acc: acc, tab: energy.DefaultTable()}, nil
}

// CreateInstanceFromFile loads the hardware configuration from a JSON file
// — the stonne_hw.cfg of Fig. 2(d).
func CreateInstanceFromFile(path string) (*Instance, error) {
	hw, err := config.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return CreateInstance(hw)
}

// HW returns the instance's hardware configuration.
func (s *Instance) HW() Hardware { return s.hw }

// ConfigureCONV configures the accelerator to run a convolution
// (Table III: ConfigureCONV).
func (s *Instance) ConfigureCONV(cs ConvShape) error {
	if err := cs.Validate(); err != nil {
		return err
	}
	s.op.kind, s.op.conv = opCONV, cs
	return nil
}

// ConfigureLinear configures a fully-connected layer of the given output
// and input widths (Table III: ConfigureLinear). batch is the number of
// input vectors (1 for image classifiers).
func (s *Instance) ConfigureLinear(out, in, batch int) error {
	if out <= 0 || in <= 0 || batch <= 0 {
		return fmt.Errorf("stonne: non-positive linear dims out=%d in=%d batch=%d", out, in, batch)
	}
	s.op.kind = opLinear
	s.lin.out, s.lin.in, s.lin.batch = out, in, batch
	return nil
}

// ConfigureDMM configures a dense matrix multiplication (Table III:
// ConfigureDMM). Dimensions are taken from the operands at RunOperation.
func (s *Instance) ConfigureDMM() { s.op.kind = opDMM }

// ConfigureSpMM configures a sparse matrix multiplication with the given
// filter-scheduling policy (Table III: ConfigureSpMM). Only the sparse
// controller skips zeros and applies the policy, to this and to later
// convolutions (NS until a policy is set); any other composition runs the
// same operands as a dense GEMM, zeros included.
func (s *Instance) ConfigureSpMM(policy SchedPolicy) {
	s.op.kind, s.op.policy = opSpMM, policy
}

// ConfigureMaxPool configures a max pooling layer (Table III:
// ConfigureMaxPool). Pooling maps onto the flexible fabric without extra
// SIMD units; the simulator accounts it as window-sized comparisons.
func (s *Instance) ConfigureMaxPool(window, stride, padding int) error {
	if window <= 0 || stride <= 0 || padding < 0 {
		return fmt.Errorf("stonne: bad pool parameters window=%d stride=%d padding=%d", window, stride, padding)
	}
	s.op.kind = opMaxPool
	s.op.pool = dnn.PoolShape{Window: window, Stride: stride, Padding: padding}
	return nil
}

// ConfigureTile supplies an explicit tile for the next dense convolution,
// overriding the mapper's choice — the per-layer tile configuration of
// Fig. 2(d).
func (s *Instance) ConfigureTile(t Tile) { s.op.tile = &t }

// ConfigureData loads the weight and input tensors into the accelerator's
// address space (Table III: ConfigureData). For DMM/SpMM, weights is the
// MK operand and inputs the KN operand.
func (s *Instance) ConfigureData(weights, inputs *Tensor) {
	s.op.weights, s.op.inputs = weights, inputs
}

// RunOperation launches the simulation of the configured operation
// (Table III: RunOperation), returning the output tensor and the run
// statistics (with the energy model applied). A SNAPEA convolution runs
// with the early cut on.
func (s *Instance) RunOperation() (*Tensor, *Run, error) {
	op := s.op
	if op.inputs == nil {
		return nil, nil, fmt.Errorf("stonne: no data configured — call ConfigureData first")
	}
	op.cut = true
	switch op.kind {
	case opCONV:
		if op.weights == nil {
			return nil, nil, fmt.Errorf("stonne: CONV requires weights")
		}
		op.layer = "conv"
		s.op.tile = nil // one run only
	case opLinear:
		outW, inW, batch := s.lin.out, s.lin.in, s.lin.batch
		if op.weights == nil || op.weights.Len() != outW*inW {
			return nil, nil, fmt.Errorf("stonne: linear weights must be %d×%d", outW, inW)
		}
		W, err := op.weights.Reshape(outW, inW)
		if err != nil {
			return nil, nil, err
		}
		X, err := op.inputs.Reshape(batch, inW)
		if err != nil {
			return nil, nil, err
		}
		// out = W × Xᵀ: run as GEMM with the weight matrix stationary.
		op.layer, op.weights, op.inputs = "linear", W, tensor.Transpose(X)
	case opDMM:
		if op.weights == nil {
			return nil, nil, fmt.Errorf("stonne: DMM requires both operands")
		}
		op.layer = "dmm"
	case opSpMM:
		if op.weights == nil {
			return nil, nil, fmt.Errorf("stonne: SpMM requires both operands")
		}
		op.layer = "spmm"
	}
	return s.execute(op)
}

// execute is the one place an operation meets the accelerator. A conv with
// an explicit tile runs RunConvTiled (flexible dense only), on SNAPEA
// RunSNAPEAConv(cut), on the sparse controller RunConvScheduled(policy),
// else RunConv; a GEMM or SpMM runs RunSpMM(policy) on the sparse
// controller, else RunGEMM, zeros included. The run is then self-checked
// (when enabled), priced by the energy model and appended to Runs.
func (s *Instance) execute(op operation) (*Tensor, *Run, error) {
	var (
		out *Tensor
		run *Run
		err error
		acc = s.acc
	)
	switch op.kind {
	case opCONV:
		switch {
		case op.tile != nil:
			out, run, err = acc.RunConvTiled(op.inputs, op.weights, op.conv, op.layer, *op.tile)
		case acc.SupportsEarlyCut():
			out, run, err = acc.RunSNAPEAConv(op.inputs, op.weights, op.conv, op.layer, op.cut)
		case acc.SupportsScheduling():
			out, run, err = acc.RunConvScheduled(op.inputs, op.weights, op.conv, op.layer, op.policy)
		default:
			out, run, err = acc.RunConv(op.inputs, op.weights, op.conv, op.layer)
		}
	case opLinear, opDMM, opSpMM:
		if acc.SupportsScheduling() {
			out, run, err = acc.RunSpMM(op.weights, op.inputs, op.layer, &op.policy)
		} else {
			out, run, err = acc.RunGEMM(op.weights, op.inputs, op.layer)
		}
	case opMaxPool:
		out, run, err = s.runMaxPool(op.inputs, op.pool)
	default:
		return nil, nil, fmt.Errorf("stonne: no operation configured")
	}
	if err != nil {
		return nil, nil, err
	}
	if s.selfCheck {
		if cerr := s.verifyRun(op, out); cerr != nil {
			return nil, nil, cerr
		}
	}
	s.tab.Apply(run, &s.hw)
	s.Runs = append(s.Runs, run)
	return out, run, nil
}

// runMaxPool executes pooling on the fabric: the values are dnn's pooling
// loop; the cost is one comparison per window element per output, at MSSize
// comparisons per cycle.
func (s *Instance) runMaxPool(in *Tensor, pool dnn.PoolShape) (*Tensor, *Run, error) {
	out, err := dnn.PoolForward(in, pool, true)
	if err != nil {
		return nil, nil, fmt.Errorf("stonne: MaxPool: %w", err)
	}
	n, c, x, y := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	ox, oy := out.Dim(2), out.Dim(3)
	comparisons := uint64(n*c*ox*oy) * uint64(pool.Window*pool.Window)
	cycles := max(comparisons/uint64(s.hw.MSSize), 1)
	run := &Run{
		Accelerator: s.hw.Name, Op: "MaxPool",
		Cycles: cycles, MemAccesses: uint64(n * c * (x*y + ox*oy)),
		Counters: map[string]uint64{
			names.MNComparisons: comparisons,
			names.GBReads:       uint64(n * c * x * y),
			names.GBWrites:      uint64(n * c * ox * oy),
		},
	}
	return out, run, nil
}
