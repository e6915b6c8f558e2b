package exp

import (
	"context"
	"testing"
)

// The exp tests run everything at 1/16 scale so the whole suite stays
// fast; the assertions pin the *shapes* the paper reports, which are
// scale-invariant.
const testScale = 16

var ctx = context.Background()

func TestRepresentativeLayers(t *testing.T) {
	layers, err := RepresentativeLayers(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != 8 {
		t.Fatalf("got %d layers, want 8", len(layers))
	}
	seen := map[string]bool{}
	for _, l := range layers {
		if seen[l.Tag] {
			t.Errorf("duplicate tag %s", l.Tag)
		}
		seen[l.Tag] = true
		if l.Layer.MACs() <= 0 {
			t.Errorf("%s: zero MACs", l.Tag)
		}
	}
}

func TestFig1aRigidAgreement(t *testing.T) {
	rows, err := Fig1aPar(ctx, 1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	// Rigid architectures: cycle-level and analytical mostly agree; we
	// bound the mean ratio (the paper reports near-equality).
	var sum float64
	for _, r := range rows {
		sum += r.RatioSTOverAM()
	}
	mean := sum / float64(len(rows))
	if mean < 0.8 || mean > 1.4 {
		t.Errorf("mean ST/AM = %.2f, want near 1 for the rigid case", mean)
	}
}

func TestFig1bDivergesWithBandwidth(t *testing.T) {
	rows, err := Fig1bPar(ctx, 1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	// The sequence-model layers are scale-invariant (no spatial dims), so
	// they pin the figure's headline precisely: ST matches AM at full
	// bandwidth and diverges towards ~4× at bw=32 (the paper's "up to
	// 400%"). The tiny scaled conv layers add fixed reload/reconfiguration
	// overheads the AM misses — also the paper's point, but noisier.
	get := func(layer, cfg string) float64 {
		for _, r := range rows {
			if r.Layer == layer && r.Config == cfg {
				return r.RatioSTOverAM()
			}
		}
		t.Fatalf("row %s/%s missing", layer, cfg)
		return 0
	}
	if v := get("B-L", "bw=128"); v < 0.9 || v > 1.1 {
		t.Errorf("B-L at full bandwidth: ST/AM = %.2f, want ≈ 1", v)
	}
	if v := get("B-L", "bw=64"); v < 1.8 {
		t.Errorf("B-L at bw=64: ST/AM = %.2f, want ≈ 2", v)
	}
	if v := get("B-L", "bw=32"); v < 3.5 {
		t.Errorf("B-L at bw=32: ST/AM = %.2f, want ≈ 4", v)
	}
	// Every layer's divergence must be monotone non-decreasing in
	// bandwidth pressure at the 10% level.
	for _, layer := range []string{"M-L", "R-L", "B-TR", "B-L"} {
		if get(layer, "bw=32") < get(layer, "bw=128")*0.9 {
			t.Errorf("%s: divergence shrank with bandwidth pressure", layer)
		}
	}
}

func TestFig1cDivergesWithSparsity(t *testing.T) {
	rows, err := Fig1cPar(ctx, 1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	worst := map[string]float64{}
	for _, r := range rows {
		if v := r.RatioSTOverAM(); v > worst[r.Config] {
			worst[r.Config] = v
		}
	}
	if !(worst["sp=90%"] > worst["sp=0%"]) {
		t.Errorf("divergence does not grow with sparsity: %v", worst)
	}
}

func TestFig5Shapes(t *testing.T) {
	rows, err := Fig5Par(ctx, 1, testScale, []string{"S"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	byArch := map[string]Fig5Row{}
	for _, r := range rows {
		byArch[r.Arch] = r
	}
	// SIGMA exploits sparsity: fastest and most energy-efficient.
	if !(byArch["SIGMA-like"].Cycles < byArch["MAERI-like"].Cycles) {
		t.Error("SIGMA not faster than MAERI")
	}
	if !(byArch["SIGMA-like"].TotalEnergy < byArch["TPU-like"].TotalEnergy) {
		t.Error("SIGMA not more energy-efficient than TPU")
	}
	// The reduction network dominates every breakdown ordering of Fig 5b:
	// TPU > MAERI > SIGMA in RN share.
	share := func(r Fig5Row) float64 { return r.EnergyUJ["RN"] / r.TotalEnergy }
	if !(share(byArch["TPU-like"]) > share(byArch["MAERI-like"]) &&
		share(byArch["MAERI-like"]) > share(byArch["SIGMA-like"])) {
		t.Errorf("RN share ordering wrong: TPU %.2f MAERI %.2f SIGMA %.2f",
			share(byArch["TPU-like"]), share(byArch["MAERI-like"]), share(byArch["SIGMA-like"]))
	}
	// Area ordering (Fig. 5c): TPU < SIGMA < MAERI.
	if !(byArch["TPU-like"].TotalArea < byArch["SIGMA-like"].TotalArea &&
		byArch["SIGMA-like"].TotalArea < byArch["MAERI-like"].TotalArea) {
		t.Error("area ordering wrong")
	}
}

func TestFig6SNAPEAWins(t *testing.T) {
	rows, err := Fig6Par(ctx, 1, testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup < 1.0 {
			t.Errorf("%s: SNAPEA slower than baseline (%.2fx)", r.Model, r.Speedup)
		}
		if r.OpsNorm >= 1.0 {
			t.Errorf("%s: no operation reduction (%.2f)", r.Model, r.OpsNorm)
		}
		if r.MemNorm >= 1.0 {
			t.Errorf("%s: no memory-access reduction (%.2f)", r.Model, r.MemNorm)
		}
	}
}

func TestFig7FilterStats(t *testing.T) {
	a, b, err := Fig7Par(ctx, 1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 7 || len(b) != 7 {
		t.Fatalf("rows %d %d", len(a), len(b))
	}
	for _, r := range a {
		if r.AvgFilters <= 0 {
			t.Errorf("%s: no filters per round", r.Model)
		}
	}
	// Fig 7b: filter sizes must be genuinely variable (the paper's point).
	for _, r := range b {
		if len(r.Sizes) < 2 {
			continue
		}
		if r.Sizes[0] == r.Sizes[len(r.Sizes)-1] {
			t.Errorf("%s: first-layer filter sizes are uniform (%v...)", r.Model, r.Sizes[:2])
		}
	}
}

func TestFig9LFFWins(t *testing.T) {
	rows, err := Fig9Par(ctx, 1, testScale, []string{"S"})
	if err != nil {
		t.Fatal(err)
	}
	var ns, lff uint64
	for _, r := range rows {
		switch r.Policy {
		case "NS":
			ns = r.Cycles
		case "LFF":
			lff = r.Cycles
		}
	}
	if lff >= ns {
		t.Errorf("LFF (%d) not faster than NS (%d)", lff, ns)
	}
}

func TestTableVRunAverage(t *testing.T) {
	rows, avg, err := TableVRun()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows %d", len(rows))
	}
	if avg > 0.10 {
		t.Errorf("average |error| vs RTL = %.1f%%, budget 10%%", 100*avg)
	}
}

// TestSumEnergyOrderIndependent pins the sorted walk behind Fig5Row's
// TotalEnergy: 1e16+1 rounds back to 1e16 in float64, so this map sums to
// 0 in sorted-key order but 1 in the order a, c, b — a map-iteration-order
// walk would flip between them across runs.
func TestSumEnergyOrderIndependent(t *testing.T) {
	br := map[string]float64{"a": 1e16, "b": 1, "c": -1e16}
	for i := 0; i < 50; i++ {
		if got := sumEnergy(br); got != 0 {
			t.Fatalf("call %d: sumEnergy = %v, want 0 (map-order drift)", i, got)
		}
	}
}
