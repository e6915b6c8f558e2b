package exp

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
	wls, err := seededModels([]string{"S", "M"}, testScale, 0xf165, 1)
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
		_, mr, err := stonne.RunModel(j.wl.Model, j.wl.w, j.wl.Input(0), j.hw, j.opts)
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

// prunedWeightPins is the SHA-256 of the pruned weights (modelDigest) of
// every (model, seed) pair a figure builds through seededModels at
// testScale: Fig. 5 (and multicore), Fig. 6, Fig. 7 and Fig. 9. The values
// come from the sort-based prune that internal/dnn keeps as its test
// oracle; any change to weight synthesis or pruning moves them.
var prunedWeightPins = []struct {
	seed uint64
	pins map[string]string // model tag → hex digest
}{
	{0xf165, map[string]string{ // Fig. 5, multicore
		"M":   "104752d3a1451f19e5dea2ba0f998df1a7ffbee1a7cfa95261ef44498a454ef2",
		"S":   "5a804cb2efa070339c1f9928046bd421935e9d456ca79719c4eb6890aabc4f95",
		"A":   "de0c0dda41dc914b26146066346c968a31ad66ee6f5be2f98a50f6c4edeba63a",
		"R":   "0e2b72674497bca20e1d2d09f1bb909dac75c1f4a293826c5b8349d55df6d102",
		"V":   "0f8d8538054a8952d233b63e055dc9eb0ecffa19b4a96a6bc38d4fac20e16428",
		"S-M": "2769cf9f7b23663b96e428bf63a2307b6dd22aed9819e91cc25b85a049ee7ac0",
		"B":   "3331193696da5a00fc2eddb4e54fc28116c0e82a33831046f253855086f01e47",
	}},
	{0xf166, map[string]string{ // Fig. 6
		"S": "e8c07e09d8ba8731e102069e557364ef63101b2d649ada3c4f069028040c1171",
		"A": "0f973af7d77fbce6eba40f7807015af4db83967117a0225053bd06960194e599",
		"R": "3335a7af17514124507965152305ba91f94e87fd5c963a8b60e0b069c353e993",
		"V": "7acdcf1e7253813610a6ba96b1e22b323c367bb6b9246b3553016fb9633a7f61",
	}},
	{0xf167, map[string]string{ // Fig. 7
		"M":   "aecfc98e1f8f82d69385cba9906c8e9c84b5b3e3265532beec5ea9f4adcb45c4",
		"S":   "2c597b4da6e469758c28f4fb1fc232e80a164389c97a867d51bf39b3b95a9ade",
		"A":   "7ca76be8db4091b476294c8b0a1f5f9617604155418e1caa5f12dfd0c988b038",
		"R":   "bb855d23d46a2b8cdced901567bbf60fa62580799b64d61a03c2d82c64fd34f4",
		"V":   "7cebb063e0286c40fdbefed6e3fae9890a83697c96e81424045f01ff65f08321",
		"S-M": "0601ebe31560e48af465960755e04c74d222342e4630c5b2b70818fa26897c08",
		"B":   "f210140a3539381872f5cec01e4c6314ba023b1d200d40ef6d37e2a20e6b9567",
	}},
	{0xf169, map[string]string{ // Fig. 9
		"M":   "cd6ea611dac132bd85c13fd26ce8464a8da00d08aba69c15508ed279cd37fdcf",
		"S":   "7f7bb37bbb3a7e06374e82ee7d811d21b05fca7d87a2cd531b62c967f3483208",
		"A":   "8da42aa599b1523d24f7e401947d2c9964233d4207733b07eadb469e6f1ae8bb",
		"R":   "c320771f7481047c0b796adf1ebbb02a55425add36e89d5d4974319e22df7ba0",
		"V":   "54f4bfb3b27e3d9d345ca56b19cc79a9cde635b02d7d03f2c158ae9c6e0a8708",
		"S-M": "eda1659a7094373cb228a1816d04f4923a8f6c4eadc1f5e0cfb38c6d51804dd1",
		"B":   "d70c5d9050b7b6b9ffd5efe360c74a7cf150cb7f4389651ce64896f7465375a2",
	}},
}

func TestPrunedWeightDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full model builds in -short mode")
	}
	for _, p := range prunedWeightPins {
		for _, full := range dnn.AllModels() {
			want, ok := p.pins[full.Short]
			if !ok {
				continue
			}
			m, err := dnn.ScaleSpatial(full, testScale)
			if err != nil {
				t.Fatal(err)
			}
			w, err := stonne.SeededModel{Model: m, Seed: p.seed}.Weights()
			if err != nil {
				t.Fatal(err)
			}
			if got := modelDigest(w); got != want {
				t.Errorf("%s @ %#x: pruned weights digest %s, want %s", full.Short, p.seed, got, want)
			}
		}
	}
}

// inputPins is the SHA-256 of the inputs (inputDigest) each figure draws
// at testScale: inputs 0 to streams-1 of the seeded model whose input seed
// is seed. An input depends on the model's name and input shape only, so a
// change to input synthesis or to a figure's input seed moves them.
var inputPins = []struct {
	seed    uint64
	streams int
	pins    map[string]string // model tag → hex digest
}{
	{0x1217, 1, map[string]string{ // Fig. 5
		"M":   "deade0c8ea6b111d7f967b51f57342b9fd88913e1b94bbc4fe2de9ee54c4b09a",
		"S":   "25dd8a17a388ba7024ed02c6a0e8198b33a5af77f4e71b69e20fd8030e308145",
		"A":   "767375b335a9c47151b0bf5ef786153da795b0d80ae99f9db132b689468cd572",
		"R":   "baee949b25c7d2bd817ef38ef55a3ff1265180493aef1d2b96c6e7aba389bdc5",
		"V":   "82c56020f91649bb8453ce1335a136fb54865e4daa9a60254547295e9822a19e",
		"S-M": "e98a2f7f9b4b14c4afb8e024b58c492e6829665bc0a77f81cc72afdf8f3364f0",
		"B":   "2a0ce2073c87717b93fb00f3985390cea4f324049939b177f0aef406d99e96e9",
	}},
	{0x1217, 8, map[string]string{ // multicore
		"M": "4e2d1b8020b5784c94e238ee34420dc3c1a09c93ef447def143f0e8126e0e5a6",
	}},
	{0x100, 2, map[string]string{ // Fig. 6, images 0 and 1
		"S": "051cd083f3a180aa62f05ace067866a461b54c39996c798a298f53fe72a74cea",
		"A": "6c024af364591909ab7fff8301c8b926bf55ea1579e09aa059909391f9252308",
		"R": "7ebe5d982801832720d617ec4b7b28048dec5eb2334c29c1ca889b4bfc9415f5",
		"V": "abd773d7ab4fb9b6214ecc7a2cb4d1853beb4e0363dc17d029d741d750293e3c",
	}},
	{0x919, 1, map[string]string{ // Fig. 9
		"M":   "18f2934070bc8b42691e4f0258c869ca190197b56c469457fe24e95e8e5a640f",
		"S":   "c61c30a69f08952bf17c8776bdd07e1df41ff58d9afe89031d164b478ed37e79",
		"A":   "a2e2ec0024061c5cd0fe63c808a59d08546a9687d3794fa62bdbd7449c5d9305",
		"R":   "73a83afb1a9a8ff771284672c32b3cce622faa265c3ba1736c5389b67f3c7722",
		"V":   "821532988ae32131fff907c1366c13d15b53aa35a771673f697b2901b464082d",
		"S-M": "906c27b13590a168da3547cc8e2b744e45e3c463483f705a5f7f3f72b3cc5b8d",
		"B":   "31309f7f3411ed938c4cd8154633bc38fef0b2eb30878a48a8dcfb3b9d211f4b",
	}},
}

func TestInputDigests(t *testing.T) {
	for _, p := range inputPins {
		for _, full := range dnn.AllModels() {
			want, ok := p.pins[full.Short]
			if !ok {
				continue
			}
			m, err := dnn.ScaleSpatial(full, testScale)
			if err != nil {
				t.Fatal(err)
			}
			inputs := stonne.SeededModel{Model: m, InputSeed: p.seed}.Inputs(p.streams)
			if got := inputDigest(inputs); got != want {
				t.Errorf("%s @ %#x×%d: input digest %s, want %s", full.Short, p.seed, p.streams, got, want)
			}
		}
	}
}

// inputDigest hashes the float32 bits of each input in order.
func inputDigest(inputs []*stonne.Tensor) string {
	h := sha256.New()
	var b [4]byte
	for _, in := range inputs {
		for _, v := range in.Data() {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// modelDigest folds weightDigests in layer-name order into one hex digest.
func modelDigest(w *dnn.Weights) string {
	layers := weightDigests(w)
	h := sha256.New()
	for _, name := range w.LayerNames() {
		d := layers[name]
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
