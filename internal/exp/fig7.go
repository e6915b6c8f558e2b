package exp

import (
	"context"
	"sort"

	"repro/internal/dnn"
	"repro/internal/sched"
	"repro/internal/simpool"
	"repro/internal/tensor"
)

// Fig7aRow gives, per model, the average number of entire sparse filters
// that can be mapped simultaneously onto a 256-MS flexible architecture
// (Fig. 7a; the paper finds 4–8 for most models, fewer for Alexnet and
// BERT whose filters are larger).
type Fig7aRow struct {
	Model      string
	AvgFilters float64
}

// Fig7bRow gives the non-zero filter sizes of the first offloaded layer of
// each model (Fig. 7b), capped at the fabric size.
type Fig7bRow struct {
	Model string
	Sizes []int
}

type fig7Pair struct {
	a Fig7aRow
	b Fig7bRow
}

// Fig7Par computes both panels at the given scale and the Table I sparsity
// ratios, over a 256-switch fabric. One simpool job per model, which also
// builds the model's weights: no other job reads them.
func Fig7Par(ctx context.Context, workers, scale int) ([]Fig7aRow, []Fig7bRow, error) {
	pairs, err := simpool.Map(ctx, workers, dnn.AllModels(), func(_ context.Context, _ int, full *dnn.Model) (fig7Pair, error) {
		wls, err := seededModels([]string{full.Short}, scale, 0xf167, 0) // weights only
		if err != nil {
			return fig7Pair{}, err
		}
		return fig7Model(wls[0]), nil
	})
	if err != nil {
		return nil, nil, err
	}
	aRows := make([]Fig7aRow, len(pairs))
	bRows := make([]Fig7bRow, len(pairs))
	for i, p := range pairs {
		aRows[i], bRows[i] = p.a, p.b
	}
	return aRows, bRows, nil
}

func fig7Model(wl *workload) fig7Pair {
	const capacity = 256
	m, w := wl.Model, wl.w
	var sumFilters, layerCount float64
	var first []int
	for i := range m.Layers {
		l := &m.Layers[i]
		nnz := filterNNZ(l, w)
		if nnz == nil {
			continue
		}
		rounds := sched.Pack(nnz, capacity, sched.NS, 0)
		if len(rounds) == 0 {
			continue
		}
		sumFilters += sched.FiltersPerRound(rounds)
		layerCount++
		if first == nil {
			first = append([]int(nil), nnz...)
			for j, v := range first {
				if v > capacity {
					first[j] = capacity
				}
			}
			sort.Sort(sort.Reverse(sort.IntSlice(first)))
		}
	}
	avg := 0.0
	if layerCount > 0 {
		avg = sumFilters / layerCount
	}
	return fig7Pair{
		a: Fig7aRow{Model: wl.name, AvgFilters: avg},
		b: Fig7bRow{Model: wl.name, Sizes: first},
	}
}

// filterNNZ returns the non-zero count of each filter (row of the GEMM
// lowering) for a weighted layer, or nil for non-offloaded kinds.
func filterNNZ(l *dnn.Layer, w *dnn.Weights) []int {
	t, ok := w.ByLayer[l.Name]
	if !ok {
		return nil
	}
	switch l.Kind {
	case dnn.Conv:
		k := l.Conv.K
		per := t.Len() / k
		return rowNNZ(t, k, per)
	case dnn.Linear:
		return rowNNZ(t, l.Out, l.In)
	default:
		return nil
	}
}

func rowNNZ(t *tensor.Tensor, rows, cols int) []int {
	d := t.Data()
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		n := 0
		for c := 0; c < cols; c++ {
			if d[r*cols+c] != 0 {
				n++
			}
		}
		out[r] = n
	}
	return out
}
