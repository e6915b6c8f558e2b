// Package config defines the hardware configuration of a simulated
// accelerator — the programmatic equivalent of STONNE's stonne_hw.cfg file.
// A configuration selects one module for each of the three on-chip network
// tiers (distribution, multiplier, reduction), a memory controller, and the
// memory-hierarchy parameters. Table IV of the paper gives the three
// canonical compositions, exposed here as presets.
package config

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"

	"repro/internal/comp"
	"repro/internal/trace"
)

// DNType selects the distribution network (Section IV-A.1).
type DNType int

const (
	// TreeDN is the MAERI-style replicated binary distribution tree with
	// single-cycle unicast/multicast/broadcast.
	TreeDN DNType = iota
	// BenesDN is the SIGMA-style N×N non-blocking Benes topology.
	BenesDN
	// PointToPointDN provides unicast-only delivery, the building block of
	// systolic arrays such as the TPU.
	PointToPointDN
)

func (t DNType) String() string {
	switch t {
	case TreeDN:
		return "TN"
	case BenesDN:
		return "BN"
	case PointToPointDN:
		return "PoPN"
	default:
		return fmt.Sprintf("DNType(%d)", int(t))
	}
}

// MNType selects the multiplier network (Section IV-A.2).
type MNType int

const (
	// LinearMN keeps forwarding links between neighbouring multiplier
	// switches to exploit sliding-window reuse (MAERI, TPU).
	LinearMN MNType = iota
	// DisabledMN removes the forwarding links; the fabric computes plain
	// GEMMs (SIGMA, SpArch).
	DisabledMN
)

func (t MNType) String() string {
	switch t {
	case LinearMN:
		return "LMN"
	case DisabledMN:
		return "DMN"
	default:
		return fmt.Sprintf("MNType(%d)", int(t))
	}
}

// RNType selects the reduction network (Section IV-A.3).
type RNType int

const (
	// ARTRN is the MAERI augmented reduction tree: 3:1 adders plus
	// horizontal forwarding links for non-blocking virtual trees.
	ARTRN RNType = iota
	// ARTAccRN is ART with an accumulation buffer at the outputs so folded
	// partial sums pipeline across iterations.
	ARTAccRN
	// FANRN is the SIGMA forwarding adder network built from 2:1 adders.
	FANRN
	// LinearRN is the linear accumulation chain of rigid designs
	// (TPU, Eyeriss, ShiDianNao).
	LinearRN
)

func (t RNType) String() string {
	switch t {
	case ARTRN:
		return "ART"
	case ARTAccRN:
		return "ART+ACC"
	case FANRN:
		return "FAN"
	case LinearRN:
		return "LRN"
	default:
		return fmt.Sprintf("RNType(%d)", int(t))
	}
}

// CtrlType selects the memory controller (Section IV-B).
type CtrlType int

const (
	// DenseCtrl orchestrates data with a fixed mRNA-style tile partition.
	DenseCtrl CtrlType = iota
	// SparseCtrl runs GEMMs over bitmap/CSR operands with dynamic cluster
	// sizes.
	SparseCtrl
	// SNAPEACtrl extends the dense controller with SNAPEA's sign-sorted
	// weights and early negative cut-off (use case 2).
	SNAPEACtrl
)

func (t CtrlType) String() string {
	switch t {
	case DenseCtrl:
		return "dense"
	case SparseCtrl:
		return "sparse"
	case SNAPEACtrl:
		return "snapea"
	default:
		return fmt.Sprintf("CtrlType(%d)", int(t))
	}
}

// Dataflow selects the stationary dimension of the dense controller.
type Dataflow int

const (
	OutputStationary Dataflow = iota
	WeightStationary
	InputStationary
)

func (d Dataflow) String() string {
	switch d {
	case OutputStationary:
		return "OS"
	case WeightStationary:
		return "WS"
	case InputStationary:
		return "IS"
	default:
		return fmt.Sprintf("Dataflow(%d)", int(d))
	}
}

// SparseFmt mirrors tensor.SparseFormat without importing it (config sits
// at the bottom of the package graph).
type SparseFmt int

const (
	FmtBitmap SparseFmt = iota
	FmtCSR
)

func (f SparseFmt) String() string {
	if f == FmtCSR {
		return "csr"
	}
	return "bitmap"
}

// DRAM holds the off-chip memory model parameters (the role DRAMsim3 plays
// in the original tool).
type DRAM struct {
	// BandwidthGBs is the peak bandwidth per module in GB/s.
	BandwidthGBs float64
	// Modules is the number of HBM modules.
	Modules int
	// RowMissLatency is the row-activation cost in cycles.
	RowMissLatency int
	// RowBytes is the open-row size: a transfer activates one row per
	// RowBytes streamed.
	RowBytes int
}

// Hardware is the complete accelerator description.
type Hardware struct {
	Name string

	// MSSize is the number of multiplier switches (processing elements).
	MSSize int

	DN   DNType
	MN   MNType
	RN   RNType
	Ctrl CtrlType

	// Dataflow is the dense controller's stationary choice. With
	// ForceDataflow unset it is a hint: the controller keeps whichever
	// GEMM operand has more reuse stationary (weight-stationary when the
	// streaming dimension is wide, input-stationary for batch-1
	// fully-connected layers). Setting ForceDataflow pins the choice —
	// the WS/IS knob of Section IV-B.
	Dataflow      Dataflow
	ForceDataflow bool

	// DNBandwidth is the number of elements per cycle the Global Buffer
	// can deliver into the distribution network (GB read ports).
	DNBandwidth int
	// RNBandwidth is the number of reduced elements per cycle the
	// reduction network can hand back to the Global Buffer (GB write
	// ports).
	RNBandwidth int

	// GBSizeKB is the Global Buffer capacity.
	GBSizeKB int
	// FIFODepth is the depth of the operand FIFOs at the multiplier
	// switches; it bounds how far delivery can run ahead of compute.
	FIFODepth int

	// SparseFormat selects bitmap or CSR for the sparse controller.
	SparseFormat SparseFmt

	// BytesPerElement of the data type (1 for the paper's FP8 use cases).
	BytesPerElement int

	// ClockGHz is the accelerator clock. Runs are counted in cycles, so its
	// one effect is the DRAM rate: elements per cycle is the module
	// bandwidth divided by it.
	ClockGHz float64

	// Preloaded marks the STONNE-user-interface mode in which operands are
	// already resident in the Global Buffer, so runs skip the initial DRAM
	// fill — the mode the Table V microbenchmarks use.
	Preloaded bool

	// DisableFastForward forces the kernel's fully-ticked cycle loop even
	// where the event-driven fast-forward path could skip provably-steady
	// stretches (DRAM-stalled barriers, drain tails). Fast-forward is
	// bit-exact — cycles, counters and trace breakdowns are identical either
	// way, pinned by differential tests — so this is a validation escape
	// hatch (`stonne -fastforward=false`), not an accuracy knob.
	DisableFastForward bool

	DRAM DRAM

	// Trace enables cycle attribution for runs on this configuration
	// (per-tier busy/stall breakdowns, Chrome trace export, periodic
	// progress callbacks). Nil disables tracing at zero per-cycle cost.
	// It is runtime-only state carrying callbacks and is never serialized.
	Trace *trace.Config `json:"-"`

	// SharedMem, when non-nil, replaces the run-private DRAM model with a
	// port into a chip-shared memory system (sim.Chip): each new run
	// context asks the source for a port bound to the run's private counter
	// set, so contention is simulated chip-wide while accounting stays
	// per-run. Like Trace, it is runtime-only state and is never
	// serialized; nil keeps today's private-DRAM behaviour bit for bit.
	SharedMem MemPortSource `json:"-"`
}

// MemPort is the method set a run's engine composition drives off-chip
// memory through (mem.Port is an alias of it) — the exact method set
// mem.DRAM has always exposed, extracted so a run can be pointed at either
// a private DRAM model (the bare-kernel path) or a per-core port into a
// chip-shared memory system (sim.Chip) without any call-site changes. The
// semantics every implementation must honour:
//
//   - FetchCycles(n) returns the cycles to stream n elements and accounts
//     the reads/row activations — a blocking fetch, used for the initial
//     working-set fill.
//   - BeginPrefetch(now, n) starts a double-buffered background transfer
//     at cycle `now`; StallCycles(now) later reports how long the consumer
//     must still wait for it (counting one stall event per probe).
//   - StallLookahead(now) is the side-effect-free fast-forward probe:
//     how many whole cycles from `now` the in-flight transfer still blocks
//     the consumer. Its bound must be exact — the kernel skips that many
//     cycles in one jump — which every implementation guarantees by fixing
//     a transfer's completion time at issue, never retroactively.
//   - AdvanceStall(n) replays the bookkeeping of n skipped stalled cycles.
//   - WriteBack(n) accounts n output elements leaving for memory.
type MemPort interface {
	FetchCycles(n int) float64
	BeginPrefetch(now float64, n int)
	StallCycles(now float64) float64
	StallLookahead(now uint64) uint64
	AdvanceStall(n uint64)
	WriteBack(n int)
}

// MemPortSource hands each run context a memory port bound to the run's
// private counter set. A chip-shared memory system implements it once per
// core; the per-run rebinding is what keeps counter snapshots per-op while
// the timing state underneath is shared.
type MemPortSource interface {
	Port(c *comp.Counters) MemPort
}

// Validate reports a descriptive error for an inconsistent configuration.
// It is the one place hardware validity is checked: every value a model
// divides by (internal/mem's rate and row arithmetic included) is refused
// here, so constructors below it take a validated description on trust.
func (h *Hardware) Validate() error {
	switch {
	case h.MSSize <= 0:
		return fmt.Errorf("config: MSSize must be positive, got %d", h.MSSize)
	case h.MSSize&(h.MSSize-1) != 0:
		return fmt.Errorf("config: MSSize must be a power of two (tree fabrics), got %d", h.MSSize)
	case h.DNBandwidth <= 0:
		return fmt.Errorf("config: DNBandwidth must be positive, got %d", h.DNBandwidth)
	case h.RNBandwidth <= 0:
		return fmt.Errorf("config: RNBandwidth must be positive, got %d", h.RNBandwidth)
	case h.GBSizeKB <= 0:
		return fmt.Errorf("config: GBSizeKB must be positive, got %d", h.GBSizeKB)
	case h.FIFODepth <= 0:
		return fmt.Errorf("config: FIFODepth must be positive, got %d", h.FIFODepth)
	case h.BytesPerElement <= 0:
		return fmt.Errorf("config: BytesPerElement must be positive, got %d", h.BytesPerElement)
	case !positiveFinite(h.ClockGHz):
		return fmt.Errorf("config: ClockGHz must be positive and finite, got %g", h.ClockGHz)
	case !positiveFinite(h.DRAM.BandwidthGBs):
		return fmt.Errorf("config: DRAM.BandwidthGBs must be positive and finite, got %g", h.DRAM.BandwidthGBs)
	case h.DRAM.Modules <= 0:
		return fmt.Errorf("config: DRAM.Modules must be positive, got %d", h.DRAM.Modules)
	case h.DRAM.RowBytes < h.BytesPerElement:
		return fmt.Errorf("config: DRAM.RowBytes must hold at least one element (%d B), got %d",
			h.BytesPerElement, h.DRAM.RowBytes)
	case h.DRAM.RowMissLatency < 0:
		return fmt.Errorf("config: DRAM.RowMissLatency must not be negative, got %d", h.DRAM.RowMissLatency)
	case h.Ctrl == SparseCtrl && h.MN != DisabledMN:
		return fmt.Errorf("config: the sparse controller requires the disabled multiplier network (got %v)", h.MN)
	case h.Ctrl == DenseCtrl && h.DN == BenesDN:
		return fmt.Errorf("config: the dense controller does not target the Benes network")
	}
	if h.Ctrl == DenseCtrl && h.DN == PointToPointDN {
		// The systolic array: √MSSize × √MSSize PEs fed from two edges. A
		// power of two is a perfect square iff its exponent is even.
		exp := bits.TrailingZeros(uint(h.MSSize))
		if exp%2 != 0 {
			return fmt.Errorf("config: systolic array needs a square PE count, got %d", h.MSSize)
		}
		if edge := 2 << (exp / 2); h.DNBandwidth < edge {
			return fmt.Errorf("config: systolic array requires full edge bandwidth (%d), configured %d",
				edge, h.DNBandwidth)
		}
	}
	return nil
}

// positiveFinite reports x > 0 with NaN and +Inf refused.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// defaultDRAM mirrors the paper's use-case system: two 256 GB/s HBM2
// modules.
func defaultDRAM() DRAM {
	return DRAM{
		BandwidthGBs:   256,
		Modules:        2,
		RowMissLatency: 38,
		RowBytes:       2048,
	}
}

func base(name string, ms int) Hardware {
	return Hardware{
		Name:            name,
		MSSize:          ms,
		GBSizeKB:        108, // paper Section VI system parameters
		FIFODepth:       4,
		BytesPerElement: 1, // FP8
		ClockGHz:        1,
		DRAM:            defaultDRAM(),
	}
}

// TPULike composes the rigid output-stationary systolic array of Table IV:
// dense controller + PoPN + LMN + LRN. pes must be a perfect square; the
// array is √pes × √pes. Systolic operation requires full edge bandwidth,
// which the constructor sets.
func TPULike(pes int) Hardware {
	h := base("TPU-like", pes)
	h.DN = PointToPointDN
	h.MN = LinearMN
	h.RN = LinearRN
	h.Ctrl = DenseCtrl
	h.Dataflow = OutputStationary
	h.DNBandwidth = pes // full bandwidth, as the architecture requires
	h.RNBandwidth = isqrt(pes)
	return h
}

// MAERILike composes the flexible dense accelerator of Table IV: dense
// controller + TN + LMN + ART(+ACC).
func MAERILike(ms, bandwidth int) Hardware {
	h := base("MAERI-like", ms)
	h.DN = TreeDN
	h.MN = LinearMN
	h.RN = ARTAccRN
	h.Ctrl = DenseCtrl
	h.Dataflow = WeightStationary
	h.DNBandwidth = bandwidth
	h.RNBandwidth = bandwidth
	return h
}

// SIGMALike composes the flexible sparse accelerator of Table IV: sparse
// controller + BN + DMN + FAN.
func SIGMALike(ms, bandwidth int) Hardware {
	h := base("SIGMA-like", ms)
	h.DN = BenesDN
	h.MN = DisabledMN
	h.RN = FANRN
	h.Ctrl = SparseCtrl
	h.Dataflow = WeightStationary
	h.DNBandwidth = bandwidth
	h.RNBandwidth = bandwidth
	h.SparseFormat = FmtBitmap
	return h
}

// SNAPEALike composes the use-case-2 accelerator: the MAERI-like back end
// driven by the SNAPEA memory controller (output-stationary linear MN, as
// the paper's implementation notes describe).
func SNAPEALike(ms, bandwidth int) Hardware {
	h := MAERILike(ms, bandwidth)
	h.Name = "SNAPEA-like"
	h.Ctrl = SNAPEACtrl
	h.Dataflow = OutputStationary
	return h
}

// WriteFile serialises the configuration as JSON — the analogue of the
// stonne_hw.cfg file a PyTorch user passes to a Simulated* operation.
func (h *Hardware) WriteFile(path string) error {
	b, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return fmt.Errorf("config: marshal: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("config: write %s: %w", path, err)
	}
	return nil
}

// ReadFile loads a configuration written by WriteFile.
func ReadFile(path string) (Hardware, error) {
	var h Hardware
	b, err := os.ReadFile(path)
	if err != nil {
		return h, fmt.Errorf("config: read %s: %w", path, err)
	}
	if err := json.Unmarshal(b, &h); err != nil {
		return h, fmt.Errorf("config: parse %s: %w", path, err)
	}
	if err := h.Validate(); err != nil {
		return h, err
	}
	return h, nil
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
