package exp

import (
	"context"
	"fmt"

	"repro/internal/analytical"
	"repro/internal/dnn"
	"repro/internal/engine"
	"repro/internal/mapper"
	"repro/internal/simpool"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Fig1Row is one bar pair of Figure 1: cycle counts from the cycle-level
// simulator (ST) and the analytical model (AM) for one layer and
// configuration.
type Fig1Row struct {
	Layer  string  // "S-SC", ...
	Config string  // "16x16", "bw=64", "sp=0.9", ...
	ST     uint64  // cycle-level simulation
	AM     float64 // analytical model

	// Breakdown is the traced ST run's per-tier cycle attribution (Fig. 1a
	// and 1b only): which tier stalls, and on what, where AM sees none.
	Breakdown map[string]stats.CycleBreakdown
}

// RatioSTOverAM is the headline metric: how much the analytical model
// underestimates.
func (r Fig1Row) RatioSTOverAM() float64 {
	if r.AM == 0 {
		return 0
	}
	return float64(r.ST) / r.AM
}

// fig1Job pairs one sweep configuration with one representative layer; the
// layer struct is shared read-only between jobs (operands are rebuilt
// inside each job from fixed seeds).
type fig1Job struct {
	cfg   int // pe / bw, or sparsity index for fig1c
	layer RepLayer
}

func fig1Jobs(cfgs []int, layers []RepLayer) []fig1Job {
	jobs := make([]fig1Job, 0, len(cfgs)*len(layers))
	for _, c := range cfgs {
		for _, rl := range layers {
			jobs = append(jobs, fig1Job{cfg: c, layer: rl})
		}
	}
	return jobs
}

// Fig1aPar compares STONNE against the SCALE-Sim-style analytical model for
// an output-stationary systolic array of 16×16, 32×32 and 64×64 PEs over
// the eight representative layers — the rigid case where both should agree
// closely. One simpool job per (PE array, layer) point.
func Fig1aPar(ctx context.Context, workers, scale int) ([]Fig1Row, error) {
	layers, err := RepresentativeLayers(scale)
	if err != nil {
		return nil, err
	}
	return simpool.Map(ctx, workers, fig1Jobs([]int{16, 32, 64}, layers),
		func(_ context.Context, _ int, j fig1Job) (Fig1Row, error) {
			return fig1aPoint(j.cfg, j.layer)
		})
}

func fig1aPoint(pe int, rl RepLayer) (Fig1Row, error) {
	run, err := runRepLayer(archHW("tpu", pe*pe, 2*pe), rl, 0xf16a)
	if err != nil {
		return Fig1Row{}, fmt.Errorf("fig1a %s: %w", rl.Tag, err)
	}
	m, n, k := rl.Layer.GEMMDims()
	am, err := analytical.SystolicOS(m, n, k, pe)
	if err != nil {
		return Fig1Row{}, err
	}
	// Grouped convolutions run once per group on both sides.
	if rl.Layer.Kind == dnn.Conv {
		am *= float64(rl.Layer.Conv.G)
	}
	return Fig1Row{Layer: rl.Tag, Config: fmt.Sprintf("%dx%d", pe, pe), ST: run.Cycles, AM: am, Breakdown: run.Breakdown}, nil
}

// Fig1bPar compares STONNE against the MAERI analytical model on a
// 128-multiplier flexible dense accelerator while the Global Buffer
// bandwidth shrinks from 128 to 64 to 32 elements/cycle — the flexible
// case where the analytical model misses pipeline stalls. One simpool job
// per (bandwidth, layer) point.
func Fig1bPar(ctx context.Context, workers, scale int) ([]Fig1Row, error) {
	layers, err := RepresentativeLayers(scale)
	if err != nil {
		return nil, err
	}
	return simpool.Map(ctx, workers, fig1Jobs([]int{128, 64, 32}, layers),
		func(_ context.Context, _ int, j fig1Job) (Fig1Row, error) {
			return fig1bPoint(j.cfg, j.layer)
		})
}

func fig1bPoint(bw int, rl RepLayer) (Fig1Row, error) {
	const ms = 128
	hw := archHW("maeri", ms, bw)
	run, err := runRepLayer(hw, rl, 0xf16b)
	if err != nil {
		return Fig1Row{}, fmt.Errorf("fig1b %s bw=%d: %w", rl.Tag, bw, err)
	}
	// The model sees a GEMM as the 1×1 convolution the fabric runs it as.
	var (
		cs   tensor.ConvShape
		tile mapper.Tile
	)
	if rl.Layer.Kind == dnn.Conv {
		cs = rl.Layer.Conv
		tile, err = mapper.PickConv(&hw, cs)
	} else {
		m, n, k := rl.Layer.GEMMDims()
		cs = mapper.GEMMShape(m, n, k)
		tile, err = mapper.PickGEMM(&hw, m, n, k)
	}
	if err != nil {
		return Fig1Row{}, err
	}
	am, err := analytical.MAERIConv(analytical.MAERIConvParams{
		K: cs.K / cs.G, C: cs.C / cs.G, G: cs.G, R: cs.R, S: cs.S,
		Xo: cs.OutX(), Yo: cs.OutY(),
		TK: tile.TK, TYp: tile.TYp, TC: tile.TC,
		MSSize: ms, Bandwidth: bw,
	})
	if err != nil {
		return Fig1Row{}, err
	}
	return Fig1Row{Layer: rl.Tag, Config: fmt.Sprintf("bw=%d", bw), ST: run.Cycles, AM: am, Breakdown: run.Breakdown}, nil
}

var fig1cSparsities = []float64{0, 0.3, 0.5, 0.7, 0.9}

// Fig1cPar compares STONNE against the SIGMA analytical model at full
// bandwidth while the weight sparsity sweeps 0% → 90% — the sparse case
// where the distribution of zeros (invisible to a formula) drives the
// cycle count. One simpool job per (sparsity, layer) point.
func Fig1cPar(ctx context.Context, workers, scale int) ([]Fig1Row, error) {
	layers, err := RepresentativeLayers(scale)
	if err != nil {
		return nil, err
	}
	return simpool.Map(ctx, workers, fig1Jobs([]int{0, 1, 2, 3, 4}, layers),
		func(_ context.Context, _ int, j fig1Job) (Fig1Row, error) {
			return fig1cPoint(fig1cSparsities[j.cfg], j.layer)
		})
}

func fig1cPoint(sp float64, rl RepLayer) (Fig1Row, error) {
	const ms, bw = 128, 128
	hw := archHW("sigma", ms, bw)
	hw.Preloaded = true
	acc, err := engine.New(hw)
	if err != nil {
		return Fig1Row{}, err
	}
	m, n, k := rl.Layer.GEMMDims()
	A, B, err := layerOperands(&rl.Layer, sp, 0xf16c)
	if err != nil {
		return Fig1Row{}, err
	}
	_, run, err := acc.RunSpMM(A, B, rl.Tag, nil)
	if err != nil {
		return Fig1Row{}, fmt.Errorf("fig1c %s sp=%.1f: %w", rl.Tag, sp, err)
	}
	am, err := analytical.SIGMA(analytical.SIGMAParams{
		M: m, N: n, K: k,
		SparsityA: A.Sparsity(), SparsityB: B.Sparsity(),
		MSSize: ms, Bandwidth: bw,
	})
	if err != nil {
		return Fig1Row{}, err
	}
	return Fig1Row{Layer: rl.Tag, Config: fmt.Sprintf("sp=%.0f%%", sp*100), ST: run.Cycles, AM: am}, nil
}
