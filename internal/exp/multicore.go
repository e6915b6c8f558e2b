package exp

import (
	"context"
	"fmt"

	"repro/stonne"
)

// MulticoreRow is one point of the multi-core scaling figure: a chip of
// Cores identical cores running Streams inference streams of one model
// under one placement policy, with the wall-clock (makespan), the scaling
// metric (throughput and its speedup over the 1-core chip), and the
// contention the shared memory system charged.
type MulticoreRow struct {
	Model     string
	Arch      string
	Scale     int
	Cores     int
	Placement string
	Streams   int

	MakespanCycles uint64
	// SerialCycles is the summed per-op work — what one core would take.
	SerialCycles uint64
	// Throughput is streams completed per million chip cycles.
	Throughput float64
	// Speedup is Throughput over the 1-core chip's under the same policy.
	Speedup float64
	// ICNWaitCycles is the chip-wide shared-memory contention delay.
	ICNWaitCycles uint64
}

// MulticoreCores is the default core-count sweep of the scaling figure.
var MulticoreCores = []int{1, 2, 4}

// Multicore sweeps chip core counts under both placement policies on
// MobileNets (the multi-layer pipeline workload of the figure): each
// configuration runs the same Streams = 2×max-cores input streams, so the
// batch policy always has work for every core and the layer policy a full
// pipeline. Rows come out grouped by placement, core counts ascending,
// with Speedup normalized inside each placement group.
func Multicore(scale int) ([]MulticoreRow, error) {
	wls, err := seededModels([]string{"M"}, scale, 0xf165, 0x1217) // Fig. 5's recipe
	if err != nil {
		return nil, err
	}
	wl := wls[0]
	hw := archHW("tpu", 256, 32)

	maxCores := MulticoreCores[len(MulticoreCores)-1]
	streams := 2 * maxCores
	inputs := wl.Inputs(streams)

	var rows []MulticoreRow
	for _, placement := range []string{"layer", "batch"} {
		var base float64
		for _, cores := range MulticoreCores {
			_, cr, err := stonne.RunModelChip(context.Background(), wl.Model, wl.w, inputs, hw,
				stonne.ChipOptions{Cores: cores, Placement: placement}, nil)
			if err != nil {
				return nil, fmt.Errorf("multicore %d-core %s: %w", cores, placement, err)
			}
			row := MulticoreRow{
				Model: wl.name, Arch: hw.Name, Scale: scale,
				Cores: cores, Placement: placement, Streams: streams,
				MakespanCycles: cr.MakespanCycles,
				SerialCycles:   cr.Total.Cycles,
				Throughput:     cr.Throughput(),
				ICNWaitCycles:  cr.ICNWaitCycles(),
			}
			if cores == MulticoreCores[0] {
				base = row.Throughput
			}
			if base > 0 {
				row.Speedup = row.Throughput / base
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
