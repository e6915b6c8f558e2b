package stonne

import (
	"fmt"

	"repro/internal/dnn"
	"repro/internal/sim"
)

// Case is one self-contained differential-check workload: a seeded op on an
// architecture's preset at one fabric size, and the operand seed. Cases built
// by RandomCase and SweepCases are valid by construction — every constraint
// the target architecture imposes (square fabrics, window fits, batch-1) is
// satisfied — so any error or tolerance failure Run reports is a real bug.
type Case struct {
	Arch   string
	MS, BW int
	Op     SeededOp
	Seed   uint64
}

func (c Case) String() string {
	o := c.Op
	head := fmt.Sprintf("%s/%s ms=%d bw=%d", c.Arch, o.Op, c.MS, c.BW)
	switch o.Op {
	case "conv":
		return fmt.Sprintf("%s %+v seed=%#x", head, *o.Conv, c.Seed)
	case "spmm":
		return fmt.Sprintf("%s %dx%dx%d sp=%.2f %s seed=%#x", head, o.M, o.N, o.K, o.Sparsity, o.Policy, c.Seed)
	default:
		return fmt.Sprintf("%s %dx%dx%d seed=%#x", head, o.M, o.N, o.K, c.Seed)
	}
}

// HW resolves the case's preset hardware configuration.
func (c Case) HW() (Hardware, error) {
	return sim.PresetHW(c.Arch, c.MS, c.BW)
}

// Run simulates the case through RunSeededOp with self-check on — the runner
// the CLI and the service use. A non-nil report is the tolerance verdict,
// passing or not. An error with no report means the op did not run, unless
// it wraps errSelfCheck: then the op ran and its output could not be
// compared with the reference.
func (c Case) Run() (*CheckReport, error) {
	hw, err := c.HW()
	if err != nil {
		return nil, err
	}
	checked, err := c.Op.Check()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c, err)
	}
	inst, err := CreateInstance(hw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c, err)
	}
	inst.EnableSelfCheck()
	_, _, err = inst.RunSeededOp(checked, c.Seed)
	if rep := inst.LastCheck(); rep != nil {
		return rep, nil
	}
	return nil, fmt.Errorf("%s: %w", c, err)
}

// RandomCase derives a valid case from a seed. Equal seeds produce equal
// cases.
func RandomCase(seed uint64) Case {
	rng := dnn.NewRNG(seed ^ 0xc0ffee)
	intn := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	names := sim.Names()
	c := Case{Arch: names[intn(len(names))]}
	op := SeededOp{Op: []string{"gemm", "conv", "spmm"}[intn(3)]}
	c.Seed = rng.Uint64()
	// Fabric: the systolic preset needs a square PE count; everything else
	// takes any power of two. Keep sizes modest so cases run in
	// milliseconds.
	if c.Arch == "tpu" {
		c.MS = []int{16, 64, 256}[intn(3)]
	} else {
		c.MS = 8 << intn(6) // 8..256
	}
	c.BW = 4 << intn(5) // 4..64
	switch op.Op {
	case "conv":
		cs := ConvShape{
			R: 1 + intn(3), S: 1 + intn(3),
			Stride:  1 + intn(2),
			Padding: intn(2),
		}
		// The flexible dense mapper folds windows over the fabric but the
		// filter plane itself must fit: R·S ≤ MS holds for every generated
		// combination (3·3 = 9 > 8 is the one excluded corner).
		for cs.R*cs.S > c.MS {
			cs.S--
		}
		cs.G = 1 + intn(2)
		cs.C = cs.G * (1 + intn(4))
		cs.K = cs.G * (1 + intn(4))
		cs.N = 1
		if c.Arch != "snapea" { // SNAPEA models batch-1 inference only
			cs.N += intn(2)
		}
		cs.X = cs.R + intn(6)
		cs.Y = cs.S + intn(6)
		op.Conv = &cs
	case "spmm":
		op.M, op.N, op.K = 1+intn(24), 1+intn(24), 1+intn(24)
		op.Sparsity = []float64{0, 0.3, 0.5, 0.8, 1}[intn(5)]
		op.Policy = []string{"NS", "RDM", "LFF"}[intn(3)]
	default:
		op.M, op.N, op.K = 1+intn(24), 1+intn(24), 1+intn(24)
	}
	c.Op = op
	return c
}

// sweepGEMMShapes is the (M, N, K) grid every architecture sweeps,
// including the degenerate single-element and skinny shapes where tiling
// logic historically breaks.
var sweepGEMMShapes = [][3]int{
	{1, 1, 1},
	{1, 17, 1},
	{3, 5, 7},
	{16, 16, 16},
	{8, 32, 4},
	{33, 13, 21},
}

// sweepConvShapes is the convolution grid: pointwise, odd window with
// padding, strided, and grouped layers.
var sweepConvShapes = []ConvShape{
	{R: 1, S: 1, C: 1, G: 1, K: 1, N: 1, X: 1, Y: 1, Stride: 1},
	{R: 1, S: 1, C: 8, G: 1, K: 4, N: 1, X: 5, Y: 5, Stride: 1},
	{R: 3, S: 3, C: 3, G: 1, K: 4, N: 1, X: 8, Y: 8, Stride: 1, Padding: 1},
	{R: 3, S: 3, C: 4, G: 2, K: 6, N: 1, X: 7, Y: 9, Stride: 2, Padding: 1},
	{R: 2, S: 3, C: 2, G: 1, K: 3, N: 1, X: 6, Y: 7, Stride: 1},
	// Batched conv: the flexible dense schedule used to silently drop every
	// image after the first (it streamed batch 0 only and returned an
	// N=1 tensor).
	{R: 2, S: 2, C: 3, G: 1, K: 2, N: 2, X: 5, Y: 6, Stride: 1},
}

// sweepSparsities covers the dense, mixed and fully-pruned regimes; 1.0 is
// the all-zero stationary operand every scheduler must survive.
var sweepSparsities = []float64{0, 0.5, 0.9, 1}

// SweepCases enumerates the full differential grid — every registered
// architecture × {gemm, conv, spmm} × the shape grids — without running
// anything. Cases are deterministic: the operand seed derives from the case
// position. TestSweep executes them; the jobkey canonicalization tests reuse
// the same list as a corpus of semantically distinct jobs.
func SweepCases() []Case {
	var out []Case
	seed := uint64(0x5eed)
	for _, arch := range sim.Names() {
		add := func(op SeededOp) {
			seed++
			// Every preset accepts a 16-PE fabric.
			out = append(out, Case{Arch: arch, MS: 16, BW: 16, Op: op, Seed: seed})
		}
		for _, s := range sweepGEMMShapes {
			add(SeededOp{Op: "gemm", M: s[0], N: s[1], K: s[2]})
		}
		for _, cs := range sweepConvShapes {
			if arch == "snapea" {
				cs.N = 1 // SNAPEA models batch-1 inference only
			}
			add(SeededOp{Op: "conv", Conv: &cs})
		}
		for _, sp := range sweepSparsities {
			for _, pol := range []string{"NS", "RDM", "LFF"} {
				add(SeededOp{Op: "spmm", M: 12, N: 9, K: 20, Sparsity: sp, Policy: pol})
			}
		}
	}
	return out
}
