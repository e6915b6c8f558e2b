package exp

import (
	"context"
	"fmt"

	"repro/internal/dnn"
	"repro/internal/engine"
	"repro/internal/simpool"
	"repro/internal/stats"
	"repro/internal/trace"
)

// StallRow is one point of the stall-breakdown study: where the cycles of
// one layer on one configuration actually go, per tier. It is the
// cycle-attribution counterpart of Figure 1b — instead of showing *that*
// the flexible fabric loses cycles when bandwidth shrinks, it shows *which
// tier* stalls and on what.
type StallRow struct {
	Arch      string
	BW        int
	Layer     string
	Cycles    uint64
	Breakdown map[string]stats.CycleBreakdown
}

// Frac returns class count / total cycles for one tier of the row.
func (r StallRow) Frac(tier string, class func(stats.CycleBreakdown) uint64) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(class(r.Breakdown[tier])) / float64(r.Cycles)
}

// stallJob is one (architecture, bandwidth, layer) sweep point.
type stallJob struct {
	arch string
	ms   int
	bw   int
	rl   RepLayer
}

// StallBreakdownPar sweeps a 128-multiplier MAERI configuration across
// shrinking Global Buffer bandwidth (128 → 64 → 32 elements/cycle) and a
// 16×16 TPU as the rigid reference, tracing every run and returning the
// per-tier cycle breakdowns. One simpool job per point.
func StallBreakdownPar(ctx context.Context, workers, scale int) ([]StallRow, error) {
	layers, err := RepresentativeLayers(scale)
	if err != nil {
		return nil, err
	}
	var jobs []stallJob
	for _, bw := range []int{128, 64, 32} {
		for _, rl := range layers {
			jobs = append(jobs, stallJob{arch: "maeri", ms: 128, bw: bw, rl: rl})
		}
	}
	for _, rl := range layers {
		jobs = append(jobs, stallJob{arch: "tpu", ms: 256, bw: 32, rl: rl})
	}
	return simpool.Map(ctx, workers, jobs,
		func(_ context.Context, _ int, j stallJob) (StallRow, error) {
			return stallPoint(j)
		})
}

func stallPoint(j stallJob) (StallRow, error) {
	hw := archHW(j.arch, j.ms, j.bw)
	hw.Preloaded = true
	hw.Trace = &trace.Config{}
	acc, err := engine.New(hw)
	if err != nil {
		return StallRow{}, err
	}
	var run *stats.Run
	if j.rl.Layer.Kind == dnn.Conv {
		in, w := convOperands(&j.rl.Layer, 0)
		_, run, err = acc.RunConv(in, w, j.rl.Layer.Conv, j.rl.Tag)
	} else {
		A, B, oerr := layerOperands(&j.rl.Layer, 0, 0x57a1)
		if oerr != nil {
			return StallRow{}, oerr
		}
		_, run, err = acc.RunGEMM(A, B, j.rl.Tag)
	}
	if err != nil {
		return StallRow{}, fmt.Errorf("stalls %s/%s bw=%d: %w", j.arch, j.rl.Tag, j.bw, err)
	}
	return StallRow{
		Arch: j.arch, BW: j.bw, Layer: j.rl.Tag,
		Cycles: run.Cycles, Breakdown: run.Breakdown,
	}, nil
}
