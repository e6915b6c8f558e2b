package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/stonne"
)

// A part is one call into the simulator that an iteration of a simulator
// workload makes: a model inference, a single GEMM, the Table V set or a
// chip run. run goes through the program's own entry point, exactly as a
// user would; spanned does the same work with the benchmark placing a span
// around every call into a layer it can reach from outside.
type part interface {
	run(tune hwTune) (*partResult, error)
	spanned(rec *spanRecorder, iter int) (*partResult, error)
	// check compares the functional outputs against the CPU reference.
	check(res *partResult) error
	// hardware returns the configurations the part simulates on, one per
	// accelerator it constructs in an iteration.
	hardware() []config.Hardware
	// shapes lists the GEMM and convolution shapes the part maps, for the
	// direct timing of the mapper.
	shapes() []opShape
	// rowNNZ lists per-filter non-zero counts of the part's sparse
	// operands, for the direct timing of the scheduler (nil if none).
	rowNNZ() [][]int
}

// hwTune adjusts the hardware description for one run: tracing on, or the
// fast-forward path off. The zero value runs the configuration as given.
type hwTune struct {
	trace  bool
	ticked bool
}

func (t hwTune) apply(hw config.Hardware) config.Hardware {
	if t.trace {
		hw.Trace = &trace.Config{}
	}
	hw.DisableFastForward = t.ticked
	return hw
}

// partResult is what one part produced.
type partResult struct {
	arch   string
	runs   []*stats.Run // per-op statistics, in execution order
	outs   []*tensor.Tensor
	cycles uint64 // summed per-op cycles
	chip   *stats.ChipRun
	rtl    *rtlError
}

// rtlError is the Table V accuracy summary of one run of the set.
type rtlError struct {
	meanPct, maxPct float64
}

// opShape is one operation shape handed to the mapper.
type opShape struct {
	conv    bool
	cs      tensor.ConvShape
	m, n, k int
	hw      config.Hardware
}

func sumCycles(runs []*stats.Run) uint64 {
	var t uint64
	for _, r := range runs {
		t += r.Cycles
	}
	return t
}

// maxRelDiff is the repository's end-to-end functional tolerance measure
// (stonne's integration tests): worst |got-want| relative to max(|want|,
// 1e-3). NaN anywhere reads as +Inf.
func maxRelDiff(got, want *tensor.Tensor) float64 {
	if got == nil || want == nil || !tensor.SameShape(got, want) {
		return math.Inf(1)
	}
	gd, wd := got.Data(), want.Data()
	worst := 0.0
	for i := range gd {
		diff := math.Abs(float64(gd[i]) - float64(wd[i]))
		d := diff / math.Max(1e-3, math.Abs(float64(wd[i])))
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		worst = math.Max(worst, d)
	}
	return worst
}

// modelTolerance bounds maxRelDiff between a simulated model's final
// scores and the native execution — the bound the repository's own
// functional-validation tests use.
const modelTolerance = 1e-3

// corruptOne flips one element of a copy of t, for the test that proves
// the correctness gate is live.
func corruptOne(t *tensor.Tensor) *tensor.Tensor {
	c := t.Clone()
	d := c.Data()
	d[len(d)/2] += 1 + float32(math.Abs(float64(d[len(d)/2])))
	return c
}

// ---------------------------------------------------------------------
// Model inference on one accelerator (stonne.RunModel).

type modelPart struct {
	name  string
	model *stonne.Model
	w     *stonne.Weights
	input *stonne.Tensor
	hw    config.Hardware
	ref   *stonne.Tensor // native execution, computed once
}

// modelSize says how much of a model a part runs: the spatial scale
// divisor, and how many leading layers (0 keeps them all; the smoke size
// keeps a few so the whole harness runs in seconds).
type modelSize struct {
	scale  int
	layers int
}

func (s modelSize) of(full *stonne.Model) (*stonne.Model, error) {
	m, err := stonne.ScaleSpatial(full, s.scale)
	if err != nil || s.layers == 0 || s.layers >= len(m.Layers) {
		return m, err
	}
	head := *m
	head.Layers = m.Layers[:s.layers]
	return &head, nil
}

// newModelPart sizes the model, draws and prunes its weights and input
// from seed, and computes the native reference.
func newModelPart(full *stonne.Model, size modelSize, hw config.Hardware, seed uint64) (*modelPart, error) {
	m, err := size.of(full)
	if err != nil {
		return nil, err
	}
	w := stonne.InitWeights(m, seed)
	if err := w.Prune(m.Sparsity); err != nil {
		return nil, err
	}
	p := &modelPart{
		name:  m.Short + "/" + hw.Name,
		model: m, w: w, hw: hw,
		input: stonne.RandomInput(m, seed+1),
	}
	if p.ref, err = stonne.RunModelNative(m, w, p.input); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *modelPart) hardware() []config.Hardware { return []config.Hardware{p.hw} }

func (p *modelPart) run(tune hwTune) (*partResult, error) {
	out, mr, err := stonne.RunModel(p.model, p.w, p.input, tune.apply(p.hw), nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	return &partResult{runs: mr.Runs, outs: []*tensor.Tensor{out}, cycles: mr.TotalCycles()}, nil
}

func (p *modelPart) check(res *partResult) error {
	if d := maxRelDiff(res.outs[0], p.ref); d > modelTolerance {
		return fmt.Errorf("%s: scores differ from native execution by %.3g (allowed %.1g)", p.name, d, modelTolerance)
	}
	return nil
}

func (p *modelPart) shapes() []opShape {
	var out []opShape
	for _, l := range p.model.OffloadedLayers() {
		if l.Kind == dnn.Conv {
			out = append(out, opShape{conv: true, cs: l.Conv, hw: p.hw})
			continue
		}
		m, n, k := l.GEMMDims()
		out = append(out, opShape{m: m, n: n, k: k, hw: p.hw})
	}
	return out
}

func (p *modelPart) rowNNZ() [][]int {
	if p.hw.Ctrl != config.SparseCtrl {
		return nil
	}
	var out [][]int
	for _, l := range p.model.OffloadedLayers() {
		w := p.w.ByLayer[l.Name]
		if w == nil || w.Rank() < 2 {
			continue
		}
		out = append(out, rowNonZeros(w.Data(), w.Dim(0)))
	}
	return out
}

// rowNonZeros counts the non-zero elements of each of the rows equal slices
// of data.
func rowNonZeros(data []float32, rows int) []int {
	per := len(data) / rows
	nnz := make([]int, rows)
	for r := range nnz {
		for _, v := range data[r*per : (r+1)*per] {
			if v != 0 {
				nnz[r]++
			}
		}
	}
	return nnz
}

// spanOffloader is the benchmark's own dnn.Offloader: it dispatches every
// offloaded layer to the engine's public Run* methods exactly as
// stonne/framework.go does, with a span around each call, so host time can
// be attributed to the engine, the energy model and the native layers
// without touching the program.
type spanOffloader struct {
	acc     *engine.Accelerator
	hw      config.Hardware
	tab     energy.Table
	cutSafe map[string]bool
	rec     *spanRecorder
	root    int
	iter    int
	runs    []*stats.Run
	// verify, when set, checks every layer's output against the CPU
	// reference under the architecture's numeric contract.
	verify   bool
	failures []string
}

func transposed(t *tensor.Tensor) *tensor.Tensor {
	r, c := t.Dim(0), t.Dim(1)
	out := tensor.New(c, r)
	src, dst := t.Data(), out.Data()
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			dst[j*r+i] = src[i*c+j]
		}
	}
	return out
}

func (o *spanOffloader) timed(name string, f func() (*tensor.Tensor, *stats.Run, error)) (*tensor.Tensor, *stats.Run, error) {
	id := o.rec.begin(name, o.root, o.iter)
	out, run, err := f()
	o.rec.end(id)
	return out, run, err
}

func (o *spanOffloader) RunLayer(l *dnn.Layer, in, w *tensor.Tensor) (*tensor.Tensor, error) {
	var (
		out *tensor.Tensor
		run *stats.Run
		err error
		rep *check.Report
	)
	acc := o.acc
	switch l.Kind {
	case dnn.Conv:
		switch {
		case acc.SupportsEarlyCut():
			out, run, err = o.timed("engine.run_snapea_conv", func() (*tensor.Tensor, *stats.Run, error) {
				return acc.RunSNAPEAConv(in, w, l.Conv, l.Name, o.cutSafe[l.Name])
			})
		case acc.SupportsScheduling():
			out, run, err = o.timed("engine.run_conv", func() (*tensor.Tensor, *stats.Run, error) {
				return acc.RunConvScheduled(in, w, l.Conv, l.Name, stonne.NoScheduling)
			})
		default:
			out, run, err = o.timed("engine.run_conv", func() (*tensor.Tensor, *stats.Run, error) {
				return acc.RunConv(in, w, l.Conv, l.Name)
			})
		}
		if err == nil && o.verify {
			rep, err = check.VerifyConv(o.hw, in, w, l.Conv, out)
		}
	case dnn.Linear, dnn.GEMM:
		a, b := w, in
		if l.Kind == dnn.Linear {
			b = transposed(in)
		} else if a, b, err = dnn.GEMMOperands(l, in); err != nil {
			return nil, err
		}
		if acc.SupportsScheduling() {
			pol := stonne.NoScheduling
			out, run, err = o.timed("engine.run_spmm", func() (*tensor.Tensor, *stats.Run, error) {
				return acc.RunSpMM(a, b, l.Name, &pol)
			})
			if err == nil && o.verify {
				rep, err = check.VerifySpMM(o.hw, a, b, out)
			}
		} else {
			out, run, err = o.timed("engine.run_gemm", func() (*tensor.Tensor, *stats.Run, error) {
				return acc.RunGEMM(a, b, l.Name)
			})
			if err == nil && o.verify {
				rep, err = check.VerifyGEMM(o.hw, a, b, out)
			}
		}
		if err == nil && l.Kind == dnn.Linear {
			out = transposed(out)
		}
	default:
		return nil, fmt.Errorf("bench: layer %s of kind %v cannot be offloaded", l.Name, l.Kind)
	}
	if err != nil {
		return nil, err
	}
	if rep != nil && !rep.OK() {
		o.failures = append(o.failures, l.Name+": "+rep.String())
	}
	id := o.rec.begin("energy.apply", o.root, o.iter)
	o.tab.Apply(run, &o.hw)
	o.rec.end(id)
	o.runs = append(o.runs, run)
	return out, nil
}

// dispatch runs the model with the benchmark's offloader.
func (p *modelPart) dispatch(rec *spanRecorder, iter int, verify bool) (*partResult, []string, error) {
	root := rec.begin("stonne.run_model", -1, iter)
	id := rec.begin("engine.new", root, iter)
	acc, err := engine.New(p.hw)
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	off := &spanOffloader{
		acc: acc, hw: p.hw, tab: energy.DefaultTable(), cutSafe: dnn.SNAPEACutSafe(p.model),
		rec: rec, root: root, iter: iter, verify: verify,
	}
	exec := &dnn.Executor{Model: p.model, Weights: p.w, Offload: off}
	out, err := exec.Run(p.input)
	rec.end(root)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", p.name, err)
	}
	res := &partResult{arch: acc.Arch(), runs: off.runs, outs: []*tensor.Tensor{out}, cycles: sumCycles(off.runs)}
	return res, off.failures, nil
}

func (p *modelPart) spanned(rec *spanRecorder, iter int) (*partResult, error) {
	res, _, err := p.dispatch(rec, iter, false)
	return res, err
}

// verifyLayers runs the model once more with every offloaded layer's
// output compared against the CPU reference under the architecture's
// numeric contract, and returns the layers out of tolerance.
func (p *modelPart) verifyLayers() ([]string, error) {
	_, failures, err := p.dispatch(newSpanRecorder(), 0, true)
	return failures, err
}

// ---------------------------------------------------------------------
// One dense GEMM on a prepared accelerator (engine.RunGEMM).

type gemmPart struct {
	name string
	hw   config.Hardware
	acc  *engine.Accelerator
	a, b *tensor.Tensor
}

func newGEMMPart(name string, hw config.Hardware, m, n, k int, seed uint64) (*gemmPart, error) {
	acc, err := engine.New(hw)
	if err != nil {
		return nil, err
	}
	rng := dnn.NewRNG(seed)
	p := &gemmPart{name: name, hw: hw, acc: acc, a: tensor.New(m, k), b: tensor.New(k, n)}
	for _, d := range [][]float32{p.a.Data(), p.b.Data()} {
		for i := range d {
			d[i] = float32(rng.Normal())
		}
	}
	return p, nil
}

func (p *gemmPart) hardware() []config.Hardware { return nil } // built at set-up, not per iteration
func (p *gemmPart) rowNNZ() [][]int             { return nil }
func (p *gemmPart) shapes() []opShape {
	return []opShape{{m: p.a.Dim(0), n: p.b.Dim(1), k: p.a.Dim(1), hw: p.hw}}
}

func (p *gemmPart) run(tune hwTune) (*partResult, error) {
	acc := p.acc
	if tune != (hwTune{}) {
		var err error
		if acc, err = engine.New(tune.apply(p.hw)); err != nil {
			return nil, err
		}
	}
	out, run, err := acc.RunGEMM(p.a, p.b, p.name)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	return &partResult{arch: acc.Arch(), runs: []*stats.Run{run}, outs: []*tensor.Tensor{out}, cycles: run.Cycles}, nil
}

func (p *gemmPart) spanned(rec *spanRecorder, iter int) (*partResult, error) {
	id := rec.begin("engine.run_gemm", -1, iter)
	res, err := p.run(hwTune{})
	rec.end(id)
	return res, err
}

func (p *gemmPart) check(res *partResult) error {
	rep, err := check.VerifyGEMM(p.hw, p.a, p.b, res.outs[0])
	if err != nil {
		return err
	}
	return rep.Err()
}

// ---------------------------------------------------------------------
// The eleven Table V RTL-validation microbenchmarks (exp.TableVRun).

type tablevPart struct{}

func (tablevPart) rowNNZ() [][]int { return nil }

// tableVHardware is the configuration RunTableVRow simulates a row on
// (internal/engine/tablev.go): MAERI 32 MS / bw 4, SIGMA 128 / 128, TPU
// 16×16, all preloaded.
func tableVHardware(design string) config.Hardware {
	var hw config.Hardware
	switch design {
	case "MAERI":
		hw = config.MAERILike(32, 4)
	case "SIGMA":
		hw = config.SIGMALike(128, 128)
	default:
		hw = config.TPULike(256)
	}
	hw.Preloaded = true
	return hw
}

func (tablevPart) hardware() []config.Hardware {
	var out []config.Hardware
	for _, row := range engine.TableV() {
		out = append(out, tableVHardware(row.Design))
	}
	return out
}

func (tablevPart) shapes() []opShape {
	var out []opShape
	for _, row := range engine.TableV() {
		out = append(out, opShape{m: row.M, n: row.N, k: row.K, hw: tableVHardware(row.Design)})
	}
	return out
}

func rtlErrorOf(rows []exp.TableVResult, mean float64) *rtlError {
	e := &rtlError{meanPct: 100 * mean}
	for _, r := range rows {
		e.maxPct = math.Max(e.maxPct, 100*math.Abs(r.ErrRTL))
	}
	return e
}

// run executes the set through exp.TableVRun. The rows build their own
// hardware, so tracing and the ticked loop cannot be selected from outside.
func (tablevPart) run(tune hwTune) (*partResult, error) {
	if tune != (hwTune{}) {
		return nil, errNotTunable
	}
	rows, mean, err := exp.TableVRun()
	if err != nil {
		return nil, err
	}
	res := &partResult{rtl: rtlErrorOf(rows, mean)}
	for _, r := range rows {
		// Only the cycle count comes back; keep it as a counter-less run
		// so the digest still pins every row.
		res.runs = append(res.runs, &stats.Run{Accelerator: r.Design, Layer: r.Layer, Cycles: r.Got})
		res.cycles += r.Got
	}
	return res, nil
}

func (tablevPart) spanned(rec *spanRecorder, iter int) (*partResult, error) {
	res := &partResult{}
	for _, row := range engine.TableV() {
		id := rec.begin("engine.tablev_row", -1, iter)
		run, err := engine.RunTableVRow(row)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		res.runs = append(res.runs, run)
		res.cycles += run.Cycles
	}
	return res, nil
}

// check has no functional output to compare: RunTableVRow returns
// statistics only, and the published RTL counts are the reference the
// rtl_err metrics report against.
func (tablevPart) check(*partResult) error { return nil }

// ---------------------------------------------------------------------
// A multi-core chip run (stonne.RunModelChip) under one placement.

type chipPart struct {
	placement string
	cores     int
	model     *stonne.Model
	w         *stonne.Weights
	inputs    []*stonne.Tensor
	refs      []*stonne.Tensor
	hw        config.Hardware
}

func newChipParts(full *stonne.Model, size modelSize, cores, streams int, hw config.Hardware, seed uint64) ([]part, error) {
	m, err := size.of(full)
	if err != nil {
		return nil, err
	}
	w := stonne.InitWeights(m, seed)
	if err := w.Prune(m.Sparsity); err != nil {
		return nil, err
	}
	inputs := make([]*stonne.Tensor, streams)
	refs := make([]*stonne.Tensor, streams)
	for i := range inputs {
		inputs[i] = stonne.RandomInput(m, seed+1+uint64(i))
		if refs[i], err = stonne.RunModelNative(m, w, inputs[i]); err != nil {
			return nil, err
		}
	}
	var parts []part
	for _, placement := range []string{"layer", "batch"} {
		parts = append(parts, &chipPart{
			placement: placement, cores: cores, model: m, w: w, inputs: inputs, refs: refs, hw: hw,
		})
	}
	return parts, nil
}

func (p *chipPart) rowNNZ() [][]int { return nil }
func (p *chipPart) shapes() []opShape {
	return (&modelPart{model: p.model, hw: p.hw}).shapes()
}

func (p *chipPart) hardware() []config.Hardware {
	out := make([]config.Hardware, p.cores)
	for i := range out {
		out[i] = p.hw
	}
	return out
}

func (p *chipPart) run(tune hwTune) (*partResult, error) {
	outs, cr, err := stonne.RunModelChip(context.Background(), p.model, p.w, p.inputs, tune.apply(p.hw),
		stonne.ChipOptions{Cores: p.cores, Placement: p.placement}, nil)
	if err != nil {
		return nil, fmt.Errorf("chip/%s: %w", p.placement, err)
	}
	// The chip reports merged totals, not per-op runs: the per-core
	// aggregates stand in for them. Cycles are the summed per-core work,
	// not the makespan.
	return &partResult{runs: cr.PerCore, outs: outs, cycles: cr.Total.Cycles, chip: cr}, nil
}

func (p *chipPart) spanned(rec *spanRecorder, iter int) (*partResult, error) {
	id := rec.begin("stonne.run_model_chip."+p.placement, -1, iter)
	res, err := p.run(hwTune{})
	rec.end(id)
	return res, err
}

func (p *chipPart) check(res *partResult) error {
	for i, out := range res.outs {
		if d := maxRelDiff(out, p.refs[i]); d > modelTolerance {
			return fmt.Errorf("chip/%s stream %d: scores differ from native execution by %.3g", p.placement, i, d)
		}
	}
	return nil
}
