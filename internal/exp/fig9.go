package exp

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dnn"
	"repro/internal/sched"
	"repro/internal/simpool"
	"repro/stonne"
)

// Fig9Row is one bar group of Figure 9a/9b: a model's full inference on
// the 256-MS SIGMA-like architecture under one filter-scheduling policy,
// normalized to the No-Scheduling run.
type Fig9Row struct {
	Model  string
	Policy string
	Scale  int

	Cycles      uint64
	Utilization float64
	EnergyUJ    float64

	// NormRuntime and NormEnergy are relative to the NS policy (1.0).
	NormRuntime float64
	NormEnergy  float64
}

type fig9Job struct {
	tag string
	pol sched.Policy
}

// Fig9Par runs the requested models (nil = all seven) under NS, RDM and
// LFF on the use-case-3 system (256 multipliers, 128 elements/cycle
// bandwidth): one simpool job per (model, policy) run, with the NS
// normalization a serial post-pass over the ordered rows.
func Fig9Par(ctx context.Context, workers, scale int, tags []string) ([]Fig9Row, error) {
	if tags == nil {
		tags = []string{"M", "S", "A", "R", "V", "S-M", "B"}
	}
	policies := []sched.Policy{sched.NS, sched.RDM, sched.LFF}
	var jobs []fig9Job
	for _, tag := range tags {
		for _, pol := range policies {
			jobs = append(jobs, fig9Job{tag: tag, pol: pol})
		}
	}
	rows, err := simpool.Map(ctx, workers, jobs, func(_ context.Context, _ int, j fig9Job) (Fig9Row, error) {
		return fig9Run(j.tag, j.pol, scale)
	})
	if err != nil {
		return nil, err
	}
	// Normalize each policy row to its model's NS row (the first of each
	// group — policy order inside a group is fixed).
	var nsCycles uint64
	var nsEnergy float64
	for i := range rows {
		if rows[i].Policy == sched.NS.String() {
			nsCycles, nsEnergy = rows[i].Cycles, rows[i].EnergyUJ
		}
		rows[i].NormRuntime = float64(rows[i].Cycles) / float64(nsCycles)
		rows[i].NormEnergy = rows[i].EnergyUJ / nsEnergy
	}
	return rows, nil
}

// fig9Run simulates one model under one scheduling policy.
func fig9Run(tag string, pol sched.Policy, scale int) (Fig9Row, error) {
	hw := archHW("sigma", 256, 128)
	full, err := dnn.ModelByShort(tag)
	if err != nil {
		return Fig9Row{}, err
	}
	m, w, err := seededModel(full, scale, 0xf169)
	if err != nil {
		return Fig9Row{}, err
	}
	input := dnn.RandomInput(m, 0x919)
	_, mr, err := stonne.RunModel(m, w, input, hw, &stonne.RunOptions{Policy: pol})
	if err != nil {
		return Fig9Row{}, fmt.Errorf("fig9 %s %v: %w", m.Name, pol, err)
	}
	return Fig9Row{
		Model: full.Name, Policy: pol.String(), Scale: scale,
		Cycles:      mr.TotalCycles(),
		Utilization: mr.AvgUtilization(),
		EnergyUJ:    mr.TotalEnergy(),
	}, nil
}

// Fig9cRow is one layer of the Resnets-50 sensitivity study (Fig. 9c): the
// LFF runtime and energy of the layer normalized to its NS run.
type Fig9cRow struct {
	Layer       string
	NormRuntime float64
	NormEnergy  float64
	UtilGain    float64 // LFF − NS multiplier utilization
}

// Fig9cPar runs every offloaded Resnets-50 layer under NS and LFF and
// returns the rows sorted by sensitivity (most-improved first). The paper
// shows 14 representative layers spanning its low/medium/high sensitivity
// classes; callers slice the extremes. The NS and LFF full-model runs are
// two simpool jobs (each rebuilds its own model and weights).
func Fig9cPar(ctx context.Context, workers, scale int) ([]Fig9cRow, error) {
	mrs, err := simpool.Map(ctx, workers, []sched.Policy{sched.NS, sched.LFF},
		func(_ context.Context, _ int, pol sched.Policy) (*stonne.ModelRun, error) {
			hw := archHW("sigma", 256, 128)
			m, w, err := seededModel(dnn.ResNet50(), scale, 0xf169)
			if err != nil {
				return nil, err
			}
			input := dnn.RandomInput(m, 0x919)
			_, mr, err := stonne.RunModel(m, w, input, hw, &stonne.RunOptions{Policy: pol})
			if err != nil {
				return nil, fmt.Errorf("fig9c %v: %w", pol, err)
			}
			return mr, nil
		})
	if err != nil {
		return nil, err
	}

	runs := map[string][2]*stonne.Run{} // layer -> [NS, LFF]
	for pi, mr := range mrs {
		for _, r := range mr.Runs {
			pair := runs[r.Layer]
			pair[pi] = r
			runs[r.Layer] = pair
		}
	}
	var rows []Fig9cRow
	for layer, pair := range runs {
		ns, lff := pair[0], pair[1]
		if ns == nil || lff == nil || ns.Cycles == 0 {
			continue
		}
		rows = append(rows, Fig9cRow{
			Layer:       layer,
			NormRuntime: float64(lff.Cycles) / float64(ns.Cycles),
			NormEnergy:  lff.TotalEnergy() / ns.TotalEnergy(),
			UtilGain:    lff.Utilization - ns.Utilization,
		})
	}
	sort.Slice(rows, func(a, b int) bool {
		//lint:ignore floatcmp sort tie-break: exact inequality only decides whether to fall through to the Layer key, so no tolerance is wanted
		if rows[a].NormRuntime != rows[b].NormRuntime {
			return rows[a].NormRuntime < rows[b].NormRuntime
		}
		return rows[a].Layer < rows[b].Layer
	})
	return rows, nil
}
