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

// TensorFromSlice wraps data in a tensor without copying.
func TensorFromSlice(data []float32, shape ...int) (*Tensor, error) {
	return tensor.FromSlice(data, shape...)
}

// opKind is the currently configured operation.
type opKind int

const (
	opNone opKind = iota
	opCONV
	opLinear
	opDMM
	opSpMM
	opMaxPool
)

// Instance is one simulated accelerator — what CreateInstance returns in
// Table III. It is not safe for concurrent use; create one instance per
// goroutine (they are cheap).
type Instance struct {
	hw  Hardware
	acc *engine.Accelerator
	tab EnergyTable

	op     opKind
	conv   ConvShape
	lin    struct{ out, in, batch int }
	pool   struct{ window, stride, padding int }
	tile   *Tile
	policy SchedPolicy

	weights, inputs *Tensor

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
	s.op, s.conv = opCONV, cs
	return nil
}

// ConfigureLinear configures a fully-connected layer of the given output
// and input widths (Table III: ConfigureLinear). batch is the number of
// input vectors (1 for image classifiers).
func (s *Instance) ConfigureLinear(out, in, batch int) error {
	if out <= 0 || in <= 0 || batch <= 0 {
		return fmt.Errorf("stonne: non-positive linear dims out=%d in=%d batch=%d", out, in, batch)
	}
	s.op = opLinear
	s.lin.out, s.lin.in, s.lin.batch = out, in, batch
	return nil
}

// ConfigureDMM configures a dense matrix multiplication (Table III:
// ConfigureDMM). Dimensions are taken from the operands at RunOperation.
func (s *Instance) ConfigureDMM() { s.op = opDMM }

// ConfigureSpMM configures a sparse matrix multiplication with the given
// filter-scheduling policy (Table III: ConfigureSpMM).
func (s *Instance) ConfigureSpMM(policy SchedPolicy) {
	s.op = opSpMM
	s.policy = policy
}

// ConfigureMaxPool configures a max pooling layer (Table III:
// ConfigureMaxPool). Pooling maps onto the flexible fabric without extra
// SIMD units; the simulator accounts it as window-sized comparisons.
func (s *Instance) ConfigureMaxPool(window, stride, padding int) error {
	if window <= 0 || stride <= 0 || padding < 0 {
		return fmt.Errorf("stonne: bad pool parameters window=%d stride=%d padding=%d", window, stride, padding)
	}
	s.op = opMaxPool
	s.pool.window, s.pool.stride, s.pool.padding = window, stride, padding
	return nil
}

// ConfigureTile supplies an explicit tile for the next dense convolution,
// overriding the mapper's choice — the per-layer tile configuration of
// Fig. 2(d).
func (s *Instance) ConfigureTile(t Tile) { s.tile = &t }

// ConfigureData loads the weight and input tensors into the accelerator's
// address space (Table III: ConfigureData). For DMM/SpMM, weights is the
// MK operand and inputs the KN operand.
func (s *Instance) ConfigureData(weights, inputs *Tensor) {
	s.weights, s.inputs = weights, inputs
}

// RunOperation launches the simulation of the configured operation
// (Table III: RunOperation), returning the output tensor and the run
// statistics (with the energy model applied).
func (s *Instance) RunOperation() (*Tensor, *Run, error) {
	if s.inputs == nil {
		return nil, nil, fmt.Errorf("stonne: no data configured — call ConfigureData first")
	}
	var (
		out    *Tensor
		run    *Run
		err    error
		gA, gB *Tensor // exact GEMM operands, kept for self-checking
	)
	switch s.op {
	case opCONV:
		if s.weights == nil {
			return nil, nil, fmt.Errorf("stonne: CONV requires weights")
		}
		if s.tile != nil {
			out, run, err = s.acc.RunConvTiled(s.inputs, s.weights, s.conv, "conv", *s.tile)
			s.tile = nil
		} else {
			out, run, err = s.acc.RunConv(s.inputs, s.weights, s.conv, "conv")
		}
	case opLinear:
		outW, inW, batch := s.lin.out, s.lin.in, s.lin.batch
		if s.weights == nil || s.weights.Len() != outW*inW {
			return nil, nil, fmt.Errorf("stonne: linear weights must be %d×%d", outW, inW)
		}
		W, err2 := s.weights.Reshape(outW, inW)
		if err2 != nil {
			return nil, nil, err2
		}
		X, err2 := s.inputs.Reshape(batch, inW)
		if err2 != nil {
			return nil, nil, err2
		}
		// out = W × Xᵀ: run as GEMM with the weight matrix stationary.
		gA, gB = W, tensor.Transpose(X)
		out, run, err = s.acc.RunGEMM(gA, gB, "linear")
	case opDMM:
		if s.weights == nil {
			return nil, nil, fmt.Errorf("stonne: DMM requires both operands")
		}
		gA, gB = s.weights, s.inputs
		out, run, err = s.acc.RunGEMM(gA, gB, "dmm")
	case opSpMM:
		if s.weights == nil {
			return nil, nil, fmt.Errorf("stonne: SpMM requires both operands")
		}
		pol := s.policy
		gA, gB = s.weights, s.inputs
		out, run, err = s.acc.RunSpMM(gA, gB, "spmm", &pol)
	case opMaxPool:
		out, run, err = s.runMaxPool()
	default:
		return nil, nil, fmt.Errorf("stonne: no operation configured")
	}
	if err != nil {
		return nil, nil, err
	}
	if s.selfCheck {
		if cerr := s.verifyRun(out, gA, gB); cerr != nil {
			return nil, nil, cerr
		}
	}
	s.tab.Apply(run, &s.hw)
	s.Runs = append(s.Runs, run)
	return out, run, nil
}

// runMaxPool executes pooling on the fabric: one comparison per window
// element per output, at MSSize comparisons per cycle.
func (s *Instance) runMaxPool() (*Tensor, *Run, error) {
	in := s.inputs
	if in.Rank() != 4 {
		return nil, nil, fmt.Errorf("stonne: MaxPool expects NCHW input, got %v", in.Shape())
	}
	n, c, x, y := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	w, st, pad := s.pool.window, s.pool.stride, s.pool.padding
	ox := (x+2*pad-w)/st + 1
	oy := (y+2*pad-w)/st + 1
	if ox <= 0 || oy <= 0 {
		return nil, nil, fmt.Errorf("stonne: pool window %d stride %d yields empty output from %v", w, st, in.Shape())
	}
	out := tensor.New(n, c, ox, oy)
	comparisons := uint64(n*c*ox*oy) * uint64(w*w)
	cycles := comparisons / uint64(s.hw.MSSize)
	if cycles == 0 {
		cycles = 1
	}
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for i := 0; i < ox; i++ {
				for j := 0; j < oy; j++ {
					best := float32(0)
					first := true
					for wi := 0; wi < w; wi++ {
						xi := i*st + wi - pad
						if xi < 0 || xi >= x {
							continue
						}
						for wj := 0; wj < w; wj++ {
							yj := j*st + wj - pad
							if yj < 0 || yj >= y {
								continue
							}
							v := in.At(ni, ci, xi, yj)
							if first || v > best {
								best = v
								first = false
							}
						}
					}
					out.Set(best, ni, ci, i, j)
				}
			}
		}
	}
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
