package exp

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/simpool"
	"repro/internal/stats"
	"repro/stonne"
)

// Fig5Row is one bar of Figure 5: full-model inference of one DNN on one
// of the three use-case-1 architectures (TPU-like, MAERI-like,
// SIGMA-like), with cycles, the per-component energy breakdown and the
// area breakdown.
type Fig5Row struct {
	Model string
	Arch  string
	Scale int

	Cycles      uint64
	MACs        uint64
	Utilization float64

	EnergyUJ    map[string]float64
	TotalEnergy float64

	AreaUM2   map[string]float64
	TotalArea float64

	// Counters is the full-model aggregate counter snapshot — what the
	// serial-vs-parallel equivalence tests pin bit-for-bit.
	Counters map[string]uint64
}

// fig5Arches are the use-case-1 systems: 256 multipliers/adders, 128
// elements/cycle GB bandwidth for the flexible designs, full bandwidth for
// the TPU (Section VI-A).
func fig5Arches() []config.Hardware {
	return []config.Hardware{
		archHW("tpu", 256, 32),
		archHW("maeri", 256, 128),
		archHW("sigma", 256, 128),
	}
}

// fig5Job is one simulation unit: one model on one architecture. The job
// reads its shared workload and draws the workload's input 0, so any worker
// count produces identical rows.
type fig5Job struct {
	wl *workload
	hw config.Hardware
}

// Fig5Par runs the complete inference of the requested models (nil = all
// seven of Table I) on the three architectures at the given spatial scale
// and returns one row per (model, architecture): one simpool job each,
// results in the serial row order regardless of completion order.
// workers <= 0 uses GOMAXPROCS; workers == 1 is exactly the serial loop.
func Fig5Par(ctx context.Context, workers, scale int, tags []string) ([]Fig5Row, error) {
	wls, err := seededModels(tags, scale, 0xf165, 0x1217)
	if err != nil {
		return nil, err
	}
	var jobs []fig5Job
	for _, wl := range wls {
		for _, hw := range fig5Arches() {
			jobs = append(jobs, fig5Job{wl: wl, hw: hw})
		}
	}
	return simpool.Map(ctx, workers, jobs, func(_ context.Context, _ int, j fig5Job) (Fig5Row, error) {
		return fig5Run(j.wl, j.hw, scale)
	})
}

// fig5Run simulates one (model, architecture) pair.
func fig5Run(wl *workload, hw config.Hardware, scale int) (Fig5Row, error) {
	_, mr, err := stonne.RunModel(wl.Model, wl.w, wl.Input(0), hw, nil)
	if err != nil {
		return Fig5Row{}, fmt.Errorf("fig5 %s on %s: %w", wl.Model.Name, hw.Name, err)
	}
	counters := map[string]uint64{}
	for _, r := range mr.Runs {
		for k, v := range r.Counters {
			counters[k] += v
		}
	}
	row := Fig5Row{
		Model: wl.name, Arch: hw.Name, Scale: scale,
		Cycles: mr.TotalCycles(), MACs: mr.TotalMACs(),
		Utilization: mr.AvgUtilization(),
		EnergyUJ:    onChip(mr.EnergyBreakdown()),
		AreaUM2:     energy.Area(&hw),
		TotalArea:   energy.TotalArea(&hw),
		Counters:    counters,
	}
	row.TotalEnergy = stats.SumSorted(row.EnergyUJ)
	return row, nil
}

// onChip keeps the four components of the paper's Fig. 5b breakdown
// (Global Buffer, Distribution, Multiplier and Reduction networks),
// dropping the off-chip DRAM and control bookkeeping.
func onChip(br map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, k := range []string{"GB", "DN", "MN", "RN"} {
		out[k] = br[k]
	}
	return out
}
