package exp

import (
	"context"
	"fmt"

	"repro/internal/simpool"
	"repro/stonne"
)

// Fig6Row summarizes use case 2 for one CNN model: the SNAPEA-like
// architecture against the same architecture without the negative
// detection logic (the paper's Baseline), over a set of input images.
type Fig6Row struct {
	Model string
	Scale int

	// Speedup = baseline cycles / SNAPEA cycles (Fig. 6a; paper: ~1.35×).
	Speedup float64
	// EnergyNorm = SNAPEA energy / baseline energy (Fig. 6b; ~0.79).
	EnergyNorm float64
	// OpsNorm = SNAPEA MACs / baseline MACs (Fig. 6c; ~0.70).
	OpsNorm float64
	// MemNorm = SNAPEA GB accesses / baseline accesses (Fig. 6d; ~0.84).
	MemNorm float64
}

// fig6Cell is one (model, image) pair's SNAPEA-vs-baseline measurements.
// Per-image cells come back from the pool in job order and are folded
// serially per model — same summation order as the serial loop, so the
// float energy totals stay bit-identical.
type fig6Cell struct {
	cycA, cycB, opsA, opsB, memA, memB uint64
	enA, enB                           float64
}

type fig6Job struct {
	wl  *workload
	img int
}

// Fig6Par runs the four purely-CNN models (Alexnet, Squeezenet, VGG-16,
// Resnets-50) on the 64-multiplier SNAPEA configuration with `images`
// distinct inputs each, comparing exact-mode early termination against the
// baseline. One simpool job per (model, image) pair.
func Fig6Par(ctx context.Context, workers, scale, images int) ([]Fig6Row, error) {
	if images < 1 {
		images = 1
	}
	wls, err := seededModels([]string{"A", "S", "V", "R"}, scale, 0xf166, 0x100)
	if err != nil {
		return nil, err
	}
	var jobs []fig6Job
	for _, wl := range wls {
		for img := 0; img < images; img++ {
			jobs = append(jobs, fig6Job{wl: wl, img: img})
		}
	}
	cells, err := simpool.Map(ctx, workers, jobs, func(_ context.Context, _ int, j fig6Job) (fig6Cell, error) {
		return fig6Image(j.wl, j.img)
	})
	if err != nil {
		return nil, err
	}

	var rows []Fig6Row
	for wi, wl := range wls {
		var agg fig6Cell
		for img := 0; img < images; img++ {
			c := cells[wi*images+img]
			agg.cycA += c.cycA
			agg.cycB += c.cycB
			agg.opsA += c.opsA
			agg.opsB += c.opsB
			agg.memA += c.memA
			agg.memB += c.memB
			agg.enA += c.enA
			agg.enB += c.enB
		}
		rows = append(rows, Fig6Row{
			Model: wl.name, Scale: scale,
			Speedup:    ratio(agg.cycB, agg.cycA),
			EnergyNorm: agg.enA / agg.enB,
			OpsNorm:    ratio(agg.opsA, agg.opsB),
			MemNorm:    ratio(agg.memA, agg.memB),
		})
	}
	return rows, nil
}

// fig6Image runs one model on one input image, SNAPEA and baseline.
func fig6Image(wl *workload, img int) (fig6Cell, error) {
	hw := archHW("snapea", 64, 64)
	input := wl.Input(img)
	_, snap, err := stonne.RunModel(wl.Model, wl.w, input, hw, nil)
	if err != nil {
		return fig6Cell{}, fmt.Errorf("fig6 %s snapea: %w", wl.Model.Name, err)
	}
	_, base, err := stonne.RunModel(wl.Model, wl.w, input, hw, &stonne.RunOptions{DisableSNAPEACut: true})
	if err != nil {
		return fig6Cell{}, fmt.Errorf("fig6 %s baseline: %w", wl.Model.Name, err)
	}
	return fig6Cell{
		cycA: snap.TotalCycles(), cycB: base.TotalCycles(),
		opsA: snap.TotalMACs(), opsB: base.TotalMACs(),
		memA: snap.TotalMemAccesses(), memB: base.TotalMemAccesses(),
		enA: snap.TotalEnergy(), enB: base.TotalEnergy(),
	}, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
