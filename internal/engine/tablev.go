package engine

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/mapper"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Table V of the paper: the eleven microbenchmarks used to validate STONNE
// against the MAERI BSV, SIGMA Verilog and SCALE-Sim TPU RTL
// implementations, with the published cycle counts. This repo cannot re-run
// the RTL, so the published counts are the ground truth our engines are
// compared against (the documented substitution in DESIGN.md).
type TableVRow struct {
	Design  string
	Layer   string
	M, N, K int
	RTL     uint64 // cycles reported by the RTL implementation
	STONNE  uint64 // cycles reported by the original STONNE
}

// TableV returns the published validation rows.
func TableV() []TableVRow {
	return []TableVRow{
		{"MAERI", "MAERI-1", 6, 25, 54, 1338, 1381},
		{"MAERI", "MAERI-2", 20, 25, 180, 16120, 16081},
		{"MAERI", "MAERI-3", 6, 400, 54, 26178, 26581},
		{"SIGMA", "SIGMA-1", 64, 128, 32, 2321, 2304},
		{"SIGMA", "SIGMA-2", 256, 64, 64, 8594, 8448},
		{"SIGMA", "SIGMA-3", 256, 128, 64, 17192, 16896},
		{"SIGMA", "SIGMA-4", 128, 1, 64, 139, 138},
		{"TPU", "TPU-1", 16, 16, 32, 66, 67},
		{"TPU", "TPU-2", 16, 16, 16, 50, 51},
		{"TPU", "TPU-3", 32, 32, 16, 200, 204},
		{"TPU", "TPU-4", 64, 64, 32, 1056, 1072},
	}
}

// tableVTile is the MAERI validation tile from Section V:
// Tile(T_R=3, T_S=3, T_C=1, T_G=1, T_K=1, T_N=1, T_X'=3, T_Y'=1).
func tableVTile(folds int) mapper.Tile {
	return mapper.Tile{
		TR: 3, TS: 3, TC: 1, TG: 1, TK: 1, TN: 1, TXp: 3, TYp: 1,
		VNSize: 9, NumVNs: 3, Folds: folds, UsedMultipliers: 27,
	}
}

// maeriConvShape reconstructs the convolution behind a MAERI Table V row:
// M filters, K = 3·3·C dot-product length, N output positions of a square
// stride-1 convolution.
func maeriConvShape(row TableVRow) (tensor.ConvShape, error) {
	c := row.K / 9
	if c*9 != row.K {
		return tensor.ConvShape{}, fmt.Errorf("engine: MAERI row %s K=%d is not 3·3·C", row.Layer, row.K)
	}
	side := 1
	for side*side < row.N {
		side++
	}
	if side*side != row.N {
		return tensor.ConvShape{}, fmt.Errorf("engine: MAERI row %s N=%d is not a square output", row.Layer, row.N)
	}
	return tensor.ConvShape{
		R: 3, S: 3, C: c, G: 1, K: row.M, N: 1,
		X: side + 2, Y: side + 2, Stride: 1,
	}, nil
}

// RunTableVRow simulates one validation row on the matching architecture
// with the paper's configuration (MAERI: 32 MS / bw 4; SIGMA: 128 MS /
// bw 128; TPU: 16×16 full bandwidth) and returns the run statistics.
func RunTableVRow(row TableVRow) (*stats.Run, error) {
	rng := dnn.NewRNG(0xab1e + uint64(row.M*row.N*row.K))
	fill := func(t *tensor.Tensor) { dnn.FillNormal(rng, t.Data(), false) }
	switch row.Design {
	case "MAERI":
		hw := config.MAERILike(32, 4)
		hw.Preloaded = true
		acc, err := New(hw)
		if err != nil {
			return nil, err
		}
		cs, err := maeriConvShape(row)
		if err != nil {
			return nil, err
		}
		in := tensor.New(1, cs.C, cs.X, cs.Y)
		w := tensor.New(cs.K, cs.C, cs.R, cs.S)
		fill(in)
		fill(w)
		_, run, err := acc.RunConvTiled(in, w, cs, row.Layer, tableVTile(cs.C))
		return run, err
	case "SIGMA":
		hw := config.SIGMALike(128, 128)
		hw.Preloaded = true
		acc, err := New(hw)
		if err != nil {
			return nil, err
		}
		A := tensor.New(row.M, row.K)
		B := tensor.New(row.K, row.N)
		fill(A)
		fill(B)
		_, run, err := acc.RunGEMM(A, B, row.Layer)
		return run, err
	case "TPU":
		hw := config.TPULike(256) // 16×16 PE array
		hw.Preloaded = true
		acc, err := New(hw)
		if err != nil {
			return nil, err
		}
		A := tensor.New(row.M, row.K)
		B := tensor.New(row.K, row.N)
		fill(A)
		fill(B)
		_, run, err := acc.RunGEMM(A, B, row.Layer)
		return run, err
	default:
		return nil, fmt.Errorf("engine: unknown Table V design %q", row.Design)
	}
}
