package exp

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/sched"
	"repro/internal/simpool"
	"repro/stonne"
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
	checkBreakdowns(t, rows)
	for _, r := range rows {
		// The rigid TPU never stalls from preloaded buffers: every MN cycle
		// is stream (busy) or fixed pipeline drain.
		if mn := r.Breakdown["MN"]; mn.Busy+mn.Drain != r.ST {
			t.Errorf("%s %s: MN busy+drain covers %d of %d cycles", r.Layer, r.Config, mn.Busy+mn.Drain, r.ST)
		}
	}
}

// checkBreakdowns pins the exactness invariant of the traced Fig. 1 points:
// every tier of every row attributes each ST cycle exactly once.
func checkBreakdowns(t *testing.T, rows []Fig1Row) {
	t.Helper()
	for _, r := range rows {
		if r.ST == 0 {
			t.Fatalf("%s %s: zero cycles", r.Layer, r.Config)
		}
		if len(r.Breakdown) != 4 {
			t.Fatalf("%s %s: %d tiers in breakdown", r.Layer, r.Config, len(r.Breakdown))
		}
		for tier, b := range r.Breakdown {
			if b.Total() != r.ST {
				t.Errorf("%s %s tier %s: sums to %d of %d cycles", r.Layer, r.Config, tier, b.Total(), r.ST)
			}
		}
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
	checkBreakdowns(t, rows)
	// Shrinking bandwidth never makes a layer faster: the extra cycles the
	// breakdown attributes are real.
	st := map[[2]string]uint64{}
	for _, r := range rows {
		st[[2]string{r.Layer, r.Config}] = r.ST
	}
	for _, r := range rows {
		if r.Config != "bw=128" {
			continue
		}
		hi, mid, lo := r.ST, st[[2]string{r.Layer, "bw=64"}], st[[2]string{r.Layer, "bw=32"}]
		if mid < hi || lo < mid {
			t.Errorf("%s: cycles fell as bandwidth shrank: %d, %d, %d at bw=128, 64, 32", r.Layer, hi, mid, lo)
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

// Fig. 9c is Fig. 9's Resnets-50 NS and LFF runs, one row per offloaded
// layer: its per-layer cycles sum to Fig. 9's full-model cycles.
func TestFig9cIsFig9ResNet(t *testing.T) {
	if testing.Short() {
		t.Skip("five Resnets-50 runs in -short mode")
	}
	const scale = 2 * testScale
	rows, err := Fig9cPar(ctx, 0, scale)
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := Fig9Par(ctx, 0, scale, []string{"R"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnn.ScaleSpatial(dnn.ResNet50(), scale)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, l := range m.OffloadedLayers() {
		want[l.Name]++
	}
	if len(rows) != len(want) {
		t.Errorf("%d rows for %d offloaded layers", len(rows), len(want))
	}
	var ns, lff uint64
	for _, r := range rows {
		if want[r.Layer] != 1 {
			t.Errorf("layer %s: not an offloaded layer, or in two rows", r.Layer)
		}
		want[r.Layer]--
		ns += r.NSCycles
		lff += r.LFFCycles
	}
	if !slices.IsSortedFunc(rows, func(a, b Fig9cRow) int {
		return cmp.Or(cmp.Compare(a.NormRuntime, b.NormRuntime), strings.Compare(a.Layer, b.Layer))
	}) {
		t.Error("rows not sorted by (NormRuntime, Layer)")
	}
	for _, r := range fig9 {
		switch {
		case r.Policy == "NS" && r.Cycles != ns:
			t.Errorf("NS: Fig. 9 has %d cycles, the Fig. 9c layers sum to %d", r.Cycles, ns)
		case r.Policy == "LFF" && r.Cycles != lff:
			t.Errorf("LFF: Fig. 9 has %d cycles, the Fig. 9c layers sum to %d", r.Cycles, lff)
		}
	}
}

// Every figure shares one workload read-only across its simpool jobs, so no
// model run may write a weight. The jobs below run every fabric's model path
// at once over shared workloads (run it with -race); each weight tensor's
// digest must come out as it went in. BERT is left out: its build alone
// outlasts the rest of the test, and its attention GEMMs carry no weights.
func TestRunModelLeavesWeightsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full model runs in -short mode")
	}
	wls, err := seededModels([]string{"S", "M"}, testScale, 0xf165)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		wl   *workload
		hw   config.Hardware
		opts *stonne.RunOptions
	}
	var jobs []job
	before := map[*workload]map[string][sha256.Size]byte{}
	for _, wl := range wls {
		before[wl] = weightDigests(wl.w)
		for _, j := range []job{
			{hw: archHW("tpu", 256, 32)},
			{hw: archHW("maeri", 256, 128)},
			{hw: archHW("sigma", 256, 128), opts: &stonne.RunOptions{Policy: sched.LFF}},
			{hw: archHW("snapea", 64, 64)},
			{hw: archHW("snapea", 64, 64), opts: &stonne.RunOptions{DisableSNAPEACut: true}},
		} {
			j.wl = wl
			jobs = append(jobs, j)
		}
	}
	_, err = simpool.Map(ctx, 0, jobs, func(_ context.Context, _ int, j job) (*stonne.ModelRun, error) {
		_, mr, err := stonne.RunModel(j.wl.m, j.wl.w, dnn.RandomInput(j.wl.m, 1), j.hw, j.opts)
		return mr, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range wls {
		after := weightDigests(wl.w)
		for name, d := range before[wl] {
			if after[name] != d {
				t.Errorf("%s: weights of layer %s changed during the runs", wl.name, name)
			}
		}
	}
}

func weightDigests(w *dnn.Weights) map[string][sha256.Size]byte {
	out := map[string][sha256.Size]byte{}
	for name, tt := range w.ByLayer {
		d := tt.Data()
		b := make([]byte, 4*len(d))
		for i, v := range d {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		out[name] = sha256.Sum256(b)
	}
	return out
}
