package exp

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/dnn"
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

// fig5Job is one simulation unit: one model on one architecture. Each job
// rebuilds its model, weights and input from fixed seeds, so jobs share no
// mutable state and any worker count produces identical rows.
type fig5Job struct {
	tag string
	hw  config.Hardware
}

// Fig5Par runs the complete inference of the requested models (nil = all
// seven of Table I) on the three architectures at the given spatial scale
// and returns one row per (model, architecture): one simpool job each,
// results in the serial row order regardless of completion order.
// workers <= 0 uses GOMAXPROCS; workers == 1 is exactly the serial loop.
func Fig5Par(ctx context.Context, workers, scale int, tags []string) ([]Fig5Row, error) {
	if tags == nil {
		tags = []string{"M", "S", "A", "R", "V", "S-M", "B"}
	}
	var jobs []fig5Job
	for _, tag := range tags {
		for _, hw := range fig5Arches() {
			jobs = append(jobs, fig5Job{tag: tag, hw: hw})
		}
	}
	return simpool.Map(ctx, workers, jobs, func(_ context.Context, _ int, j fig5Job) (Fig5Row, error) {
		return fig5Run(j.tag, j.hw, scale)
	})
}

// fig5Run simulates one (model, architecture) pair from scratch.
func fig5Run(tag string, hw config.Hardware, scale int) (Fig5Row, error) {
	full, err := dnn.ModelByShort(tag)
	if err != nil {
		return Fig5Row{}, err
	}
	m, err := dnn.ScaleSpatial(full, scale)
	if err != nil {
		return Fig5Row{}, err
	}
	w := dnn.InitWeights(m, 0xf165)
	if err := w.Prune(m.Sparsity); err != nil {
		return Fig5Row{}, err
	}
	input := dnn.RandomInput(m, 0x1217)
	mr, err := runModelStats(m, w, input, hw)
	if err != nil {
		return Fig5Row{}, fmt.Errorf("fig5 %s on %s: %w", m.Name, hw.Name, err)
	}
	counters := map[string]uint64{}
	for _, r := range mr.Runs {
		for k, v := range r.Counters {
			counters[k] += v
		}
	}
	row := Fig5Row{
		Model: full.Name, Arch: hw.Name, Scale: scale,
		Cycles: mr.TotalCycles(), MACs: mr.TotalMACs(),
		Utilization: mr.AvgUtilization(),
		EnergyUJ:    onChip(mr.EnergyBreakdown()),
		AreaUM2:     energy.Area(&hw),
		TotalArea:   energy.TotalArea(&hw),
		Counters:    counters,
	}
	row.TotalEnergy = sumEnergy(row.EnergyUJ)
	return row, nil
}

// sumEnergy totals a per-component energy map in sorted-key order: float
// addition is order-sensitive in the last bits, and Fig. 5 rows must be
// byte-identical across runs.
func sumEnergy(br map[string]float64) float64 {
	keys := make([]string, 0, len(br))
	for k := range br {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var t float64
	for _, k := range keys {
		t += br[k]
	}
	return t
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

// runModelStats offloads every compute-intensive layer onto the hardware
// and returns the aggregated statistics (without the functional output,
// which Fig. 5 does not need).
func runModelStats(m *dnn.Model, w *dnn.Weights, input *stonne.Tensor, hw config.Hardware) (*stats.ModelRun, error) {
	_, mr, err := stonne.RunModel(m, w, input, hw, nil)
	return mr, err
}
