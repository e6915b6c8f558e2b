package exp

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

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
	wl  *workload
	pol sched.Policy
}

// fig9Sweep runs each requested model (nil = all seven) under each policy
// on the use-case-3 system (256 multipliers, 128 elements/cycle bandwidth):
// one simpool job per (model, policy) run. runs[i][j] is model i under
// policies[j].
func fig9Sweep(ctx context.Context, workers, scale int, tags []string, policies []sched.Policy) (wls []*workload, runs [][]*stonne.ModelRun, err error) {
	wls, err = seededModels(tags, scale, 0xf169, 0x919)
	if err != nil {
		return nil, nil, err
	}
	var jobs []fig9Job
	for _, wl := range wls {
		for _, pol := range policies {
			jobs = append(jobs, fig9Job{wl: wl, pol: pol})
		}
	}
	mrs, err := simpool.Map(ctx, workers, jobs, func(_ context.Context, _ int, j fig9Job) (*stonne.ModelRun, error) {
		_, mr, err := stonne.RunModel(j.wl.Model, j.wl.w, j.wl.Input(0), archHW("sigma", 256, 128), &stonne.RunOptions{Policy: j.pol})
		if err != nil {
			return nil, fmt.Errorf("fig9 %s %v: %w", j.wl.Model.Name, j.pol, err)
		}
		return mr, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i := range wls {
		runs = append(runs, mrs[i*len(policies):(i+1)*len(policies)])
	}
	return wls, runs, nil
}

// Fig9Par runs the requested models (nil = all seven) under NS, RDM and
// LFF, one row per (model, policy) normalized to the model's NS run.
func Fig9Par(ctx context.Context, workers, scale int, tags []string) ([]Fig9Row, error) {
	policies := []sched.Policy{sched.NS, sched.RDM, sched.LFF}
	wls, runs, err := fig9Sweep(ctx, workers, scale, tags, policies)
	if err != nil {
		return nil, err
	}
	var rows []Fig9Row
	for i, wl := range wls {
		ns := runs[i][0]
		for j, mr := range runs[i] {
			rows = append(rows, Fig9Row{
				Model: wl.name, Policy: policies[j].String(), Scale: scale,
				Cycles:      mr.TotalCycles(),
				Utilization: mr.AvgUtilization(),
				EnergyUJ:    mr.TotalEnergy(),
				NormRuntime: float64(mr.TotalCycles()) / float64(ns.TotalCycles()),
				NormEnergy:  mr.TotalEnergy() / ns.TotalEnergy(),
			})
		}
	}
	return rows, nil
}

// Fig9cRow is one layer of the Resnets-50 sensitivity study (Fig. 9c): the
// LFF runtime and energy of the layer normalized to its NS run.
type Fig9cRow struct {
	Layer       string
	NormRuntime float64
	NormEnergy  float64
	UtilGain    float64 // LFF − NS multiplier utilization

	NSCycles, LFFCycles uint64
}

// Fig9cPar takes every offloaded Resnets-50 layer of Fig. 9's NS and LFF
// runs and returns the rows sorted by sensitivity (most-improved first).
// The paper shows 14 representative layers spanning its low/medium/high
// sensitivity classes; callers slice the extremes.
func Fig9cPar(ctx context.Context, workers, scale int) ([]Fig9cRow, error) {
	_, runs, err := fig9Sweep(ctx, workers, scale, []string{"R"}, []sched.Policy{sched.NS, sched.LFF})
	if err != nil {
		return nil, err
	}
	ns, lff := runs[0][0].Runs, runs[0][1].Runs
	rows := make([]Fig9cRow, len(ns))
	for i, n := range ns {
		l := lff[i]
		rows[i] = Fig9cRow{
			Layer:       n.Layer,
			NormRuntime: float64(l.Cycles) / float64(n.Cycles),
			NormEnergy:  l.TotalEnergy() / n.TotalEnergy(),
			UtilGain:    l.Utilization - n.Utilization,
			NSCycles:    n.Cycles,
			LFFCycles:   l.Cycles,
		}
	}
	slices.SortFunc(rows, func(a, b Fig9cRow) int {
		return cmp.Or(cmp.Compare(a.NormRuntime, b.NormRuntime), strings.Compare(a.Layer, b.Layer))
	})
	return rows, nil
}
