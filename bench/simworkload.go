package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/mapper"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/stonne"
)

var errNotTunable = errors.New("bench: this part builds its own hardware and cannot be traced or ticked from outside")

// simWorkload runs a list of parts sequentially; one pass over the list is
// one iteration.
type simWorkload struct {
	name  string
	build func(seed uint64) ([]part, error)
	smoke bool

	parts []part
	warm  time.Duration // the warm-up iteration's wall time
}

// simWorkloads builds the five simulator workloads. Sizes are for a 2-core
// host and an 8-second run; smoke shrinks every one to well under a second.
func simWorkloads(smoke bool) []*simWorkload {
	size := modelSize{scale: 16}
	if smoke {
		size = modelSize{scale: 16, layers: 6}
	}
	return []*simWorkload{
		{name: "model-flex", smoke: smoke, build: func(seed uint64) ([]part, error) {
			a, err := newModelPart(stonne.MobileNetsV1(), size, stonne.MAERILike(128, 64), seed)
			if err != nil {
				return nil, err
			}
			b, err := newModelPart(stonne.SqueezeNet(), size, stonne.SIGMALike(128, 64), seed)
			if err != nil {
				return nil, err
			}
			return []part{a, b}, nil
		}},
		{name: "model-rigid", smoke: smoke, build: func(seed uint64) ([]part, error) {
			a, err := newModelPart(stonne.MobileNetsV1(), size, stonne.TPULike(256), seed)
			if err != nil {
				return nil, err
			}
			b, err := newModelPart(stonne.AlexNet(), size, stonne.SNAPEALike(64, 64), seed)
			if err != nil {
				return nil, err
			}
			// The SNAPEA run reuses the MobileNets weights and input the
			// TPU part drew: same model, other fabric.
			c := &modelPart{name: a.model.Short + "/" + stonne.SNAPEALike(64, 64).Name,
				model: a.model, w: a.w, input: a.input, ref: a.ref, hw: stonne.SNAPEALike(64, 64)}
			return []part{a, b, c}, nil
		}},
		{name: "gemm-starved", smoke: smoke, build: func(seed uint64) ([]part, error) {
			hw := config.MAERILike(128, 64)
			hw.Preloaded = true
			hw.DRAM.BandwidthGBs = 0.25 // trickle DRAM: fetch swamps compute
			hw.DRAM.Modules = 1
			k := 4096
			if smoke {
				k = 256
			}
			p, err := newGEMMPart("starved", hw, 16, 16, k, seed)
			if err != nil {
				return nil, err
			}
			return []part{p}, nil
		}},
		{name: "tablev-rtl", smoke: smoke, build: func(uint64) ([]part, error) {
			return []part{tablevPart{}}, nil
		}},
		{name: "chip-4core", smoke: smoke, build: func(seed uint64) ([]part, error) {
			streams := 4
			if smoke {
				streams = 2
			}
			return newChipParts(stonne.SqueezeNet(), size, 4, streams, stonne.TPULike(256), seed)
		}},
	}
}

// iteration runs every part once through the program's entry points and
// returns the results with the wall time and heap allocation of the calls
// alone (checks and digests are outside the timed region).
func (w *simWorkload) iteration(tune hwTune) ([]*partResult, time.Duration, float64, error) {
	results := make([]*partResult, 0, len(w.parts))
	a0, t0 := totalAllocMB(), time.Now()
	for _, p := range w.parts {
		res, err := p.run(tune)
		if err != nil {
			return nil, 0, 0, err
		}
		results = append(results, res)
	}
	return results, time.Since(t0), totalAllocMB() - a0, nil
}

func (w *simWorkload) setUp(seed uint64) error {
	parts, err := w.build(seed)
	if err != nil {
		return err
	}
	w.parts = parts
	_, dt, _, err := w.iteration(hwTune{})
	w.warm = dt
	return err
}

func (w *simWorkload) tearDown() {}

// procs is 1 for both passes: a simulation is sequential.
func (w *simWorkload) procs(bool) int { return 1 }

// writeRuns feeds the exact content of a run set into h: identity, cycles,
// MACs and every activity counter in sorted order.
func writeRuns(h hash.Hash, runs []*stats.Run) {
	for _, r := range runs {
		fmt.Fprintf(h, "%s|%s|%s|%d|%d\n", r.Accelerator, r.Op, r.Layer, r.Cycles, r.MACs)
		keys := make([]string, 0, len(r.Counters))
		for k := range r.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%d\n", k, r.Counters[k])
		}
	}
}

// statsDigest hashes the statistics of one iteration and sums its cycles.
func statsDigest(results []*partResult) (digest string, cycles uint64) {
	h := sha256.New()
	for _, res := range results {
		writeRuns(h, res.runs)
		cycles += res.cycles
	}
	return hex.EncodeToString(h.Sum(nil)), cycles
}

// minIterations is the fewest timed iterations a run reports on, however
// short --seconds is; the smoke size settles for one.
func minIterations(smoke bool) int {
	if smoke {
		return 1
	}
	return 3
}

func (w *simWorkload) measure(d time.Duration, o *outcome) error {
	var (
		its       []iteration
		refDigest string
		refCycles uint64
		rtl       *rtlError
	)
	start := time.Now()
	for it := 0; it < minIterations(w.smoke) || time.Since(start) < d; it++ {
		results, dt, mb, err := w.iteration(hwTune{})
		o.attempted++
		if err != nil {
			o.fail("iteration %d: %v", it, err)
			return err
		}
		digest, cycles := statsDigest(results)
		its = append(its, iteration{wall: dt, ops: 1, cycles: cycles, allocMB: mb})
		if it == 0 {
			refDigest, refCycles = digest, cycles
		}
		ok := true
		if cycles != refCycles || digest != refDigest {
			o.fail("iteration %d: %d cycles, digest %.12s; first iteration had %d, %.12s", it, cycles, digest, refCycles, refDigest)
			ok = false
		}
		for i, p := range w.parts {
			res := results[i]
			if faultInjected == faultOutput && len(res.outs) > 0 {
				res.outs[0] = corruptOne(res.outs[0])
			}
			if err := p.check(res); err != nil && ok {
				o.fail("iteration %d: %v", it, err)
				ok = false
			}
			if res.rtl != nil {
				rtl = res.rtl
			}
		}
	}
	reportIterations(o, its)
	// The one operation of an iteration is the iteration, so what a caller
	// waits for restates host_s.
	o.metrics["latency_p50_ms"] = 1000 * o.metrics["host_s"]
	o.metrics["latency_p90_ms"] = 1000 * o.metrics["host_s"]
	o.extra["sim_cycles"] = refCycles
	o.extra["stats_digest"] = refDigest
	if rtl != nil {
		o.extra["rtl_err_mean_pct"], o.extra["rtl_err_max_pct"] = rtl.meanPct, rtl.maxPct
	}
	return nil
}

// archCost accumulates the host time and simulated cycles of the engine
// calls on one architecture.
type archCost struct {
	host   time.Duration
	cycles uint64
}

// tracedRepeats picks how many iterations of each kind (untraced, spanned,
// recorder on, ticked) the traced pass runs: as many as fit the budget,
// between 2 and 10. Each comparison is quietest against quietest, so it
// takes two of a kind for one disturbed iteration not to decide it.
func tracedRepeats(budget, iter time.Duration) int {
	if iter <= 0 {
		return 10
	}
	return min(max(int(budget/iter)/4, 2), 10)
}

func (w *simWorkload) traced(d time.Duration, o *outcome) error {
	rec := newSpanRecorder()
	stopProfile, err := startCPUProfile()
	if err != nil {
		return err
	}
	defer stopProfile()

	// Untraced and spanned iterations, interleaved so drift hits both.
	k := tracedRepeats(d, w.warm)
	if w.smoke {
		k = 1
	}
	var plain, spannedWall []float64
	var refCycles uint64
	var last []*partResult
	perArch := map[string]*archCost{}
	for it := 0; it < k; it++ {
		results, dt, _, err := w.iteration(hwTune{})
		o.attempted++
		if err != nil {
			o.fail("untraced iteration %d: %v", it, err)
			return err
		}
		plain = append(plain, dt.Seconds())
		_, cycles := statsDigest(results)
		if it == 0 {
			refCycles = cycles
		}

		t0 := time.Now()
		var spanCycles uint64
		last = last[:0]
		for _, p := range w.parts {
			before := len(rec.snapshot())
			res, err := p.spanned(rec, it)
			if err != nil {
				o.fail("spanned iteration %d: %v", it, err)
				return err
			}
			spanCycles += res.cycles
			last = append(last, res)
			addArchCost(perArch, res, rec.snapshot()[before:])
		}
		spannedWall = append(spannedWall, time.Since(t0).Seconds())
		o.attempted++
		// The benchmark's own dispatch must simulate exactly what the
		// program's entry point did.
		if spanCycles != refCycles || cycles != refCycles {
			o.fail("iteration %d: traced pass simulated %d cycles, untraced %d, first %d", it, spanCycles, cycles, refCycles)
		}
	}
	profile := stopProfile()

	set := func(name string, v float64) { o.metrics[name] = v }
	iters := float64(k)
	totals := totalsByName(rec.snapshot())
	for _, name := range []string{"stonne.run_model", "engine.new", "engine.run_conv", "engine.run_gemm", "engine.run_spmm", "engine.run_snapea_conv"} {
		t := totals[name]
		set(name+".host_ms", ms(t.Total)/iters)
		if name != "stonne.run_model" {
			set(name+".calls", float64(t.Calls)/iters)
		}
	}
	for _, p := range []string{"layer", "batch"} {
		set("stonne.run_model_chip."+p+".host_ms", ms(totals["stonne.run_model_chip."+p].Total)/iters)
	}
	set("dnn.native.self_ms", ms(totals["stonne.run_model"].Self)/iters)
	for arch, c := range perArch {
		if name := "engine." + arch + ".ns_per_sim_cycle"; isPerLayer(name) {
			set(name, ratio(float64(c.host.Nanoseconds()), float64(c.cycles)))
		}
	}
	set("bench.trace_overhead_pct", 100*(ratio(slices.Min(spannedWall), slices.Min(plain))-1))
	set("bench.samples", float64(2*k))
	o.extra["sim_cycles"] = refCycles

	w.countersAndChip(last, set)
	w.recorderAndFastForward(k, slices.Min(plain), refCycles, o, set)
	w.directTimings(last, totals, set)

	// Per-layer functional check under each architecture's numeric
	// contract, outside every span.
	for _, p := range w.parts {
		mp, ok := p.(*modelPart)
		if !ok {
			continue
		}
		failures, err := mp.verifyLayers()
		o.attempted++
		if err != nil {
			o.fail("%s: layer verification: %v", mp.name, err)
		}
		for _, f := range failures {
			o.fail("%s: %s", mp.name, f)
		}
	}

	if err := accuracyAndPool(w.name == "tablev-rtl", w.smoke, set); err != nil {
		o.fail("table V: %v", err)
	}
	o.spans = rec.snapshot()
	return foldCPUProfile(profile, o, set)
}

// addArchCost charges the engine spans a part just recorded to the
// architecture they ran on.
func addArchCost(perArch map[string]*archCost, res *partResult, spans []span) {
	var host time.Duration
	byRow := map[string]time.Duration{}
	row := 0
	for _, s := range spans {
		switch {
		case s.Name == "engine.tablev_row":
			byRow[strings.ToLower(engine.TableV()[row].Design)] += s.End - s.Start
			row++
		case strings.HasPrefix(s.Name, "engine.run_"):
			host += s.End - s.Start
		}
	}
	charge := func(arch string, host time.Duration, cycles uint64) {
		if perArch[arch] == nil {
			perArch[arch] = &archCost{}
		}
		perArch[arch].host += host
		perArch[arch].cycles += cycles
	}
	if len(byRow) > 0 {
		for i, r := range engine.TableV() {
			charge(strings.ToLower(r.Design), 0, res.runs[i].Cycles)
		}
		for arch, h := range byRow {
			charge(arch, h, 0)
		}
		return
	}
	if res.arch != "" {
		charge(res.arch, host, res.cycles)
	}
}

// countersAndChip sums the modelled-component counters over the last
// iteration and reports the chip composition per placement.
func (w *simWorkload) countersAndChip(results []*partResult, set func(string, float64)) {
	sums := map[string]uint64{}
	for _, res := range results {
		for _, r := range res.runs {
			for k, v := range r.Counters {
				sums[k] += v
			}
		}
		if cr := res.chip; cr != nil {
			p := cr.Placement
			set("sim.chip."+p+".makespan_cycles", float64(cr.MakespanCycles))
			set("sim.chip."+p+".serial_cycles", float64(cr.Total.Cycles))
			set("sim.chip."+p+".overlap_x", ratio(float64(cr.Total.Cycles), float64(cr.MakespanCycles)))
			set("mem.shared."+p+".icn_requests", float64(cr.Total.Counters["icn.requests"]))
			set("mem.shared."+p+".icn_busy_cycles", float64(cr.Total.Counters["icn.busy_cycles"]))
			set("mem.shared."+p+".icn_wait_cycles", float64(cr.Total.Counters["icn.wait_cycles"]))
		}
	}
	for _, c := range modelledCounters {
		set(c.metric, float64(sums[c.counter]))
	}
}

// tuned runs k iterations under tune and returns the last one's results
// and the quietest one's wall time, in seconds.
func (w *simWorkload) tuned(tune hwTune, k int, o *outcome) ([]*partResult, float64, error) {
	var results []*partResult
	var wall []float64
	for i := 0; i < k; i++ {
		res, dt, _, err := w.iteration(tune)
		if err != nil {
			return nil, 0, err
		}
		o.attempted++
		results, wall = res, append(wall, dt.Seconds())
	}
	return results, slices.Min(wall), nil
}

// recorderAndFastForward runs k iterations with the cycle-attribution
// recorder on and k with the ticked loop forced, and reports the tier
// shares, the fast-forward share and speed-up, and the recorder's cost,
// each as quietest iteration against quietest untraced iteration (plainS).
func (w *simWorkload) recorderAndFastForward(k int, plainS float64, refCycles uint64, o *outcome, set func(string, float64)) {
	results, recorderS, err := w.tuned(hwTune{trace: true}, k, o)
	if errors.Is(err, errNotTunable) {
		o.extra["note"] = "trace.* and sim.kernel.* are not measurable here: the rows build their own hardware"
		return
	}
	if err != nil {
		o.fail("recorder iteration: %v", err)
		return
	}
	var cycles, skipped uint64
	tiers := map[string]stats.CycleBreakdown{}
	for _, res := range results {
		cycles += res.cycles
		for _, r := range res.runs {
			skipped += r.Counters["trace.ff.skipped_cycles"]
			for tier, b := range r.Breakdown {
				agg := tiers[tier]
				agg.Accumulate(b)
				tiers[tier] = agg
			}
		}
	}
	if cycles != refCycles {
		o.fail("recorder iteration simulated %d cycles, untraced %d", cycles, refCycles)
	}
	for _, tier := range []string{"DN", "MN", "RN", "MEM"} {
		b := tiers[tier]
		total := float64(b.Total())
		name := "trace." + strings.ToLower(tier)
		set(name+".busy_share", ratio(float64(b.Busy), total))
		set(name+".stall_input_share", ratio(float64(b.StallInput), total))
		set(name+".stall_bandwidth_share", ratio(float64(b.StallBandwidth), total))
	}
	set("sim.kernel.ff_skipped_share", ratio(float64(skipped), float64(cycles)))
	set("trace.recorder.overhead_pct", 100*(ratio(recorderS, plainS)-1))

	results, tickedS, err := w.tuned(hwTune{ticked: true}, k, o)
	if err != nil {
		o.fail("ticked iteration: %v", err)
		return
	}
	if _, c := statsDigest(results); c != refCycles {
		o.fail("ticked iteration simulated %d cycles, fast-forward %d", c, refCycles)
	}
	set("sim.kernel.ff_speedup_x", ratio(tickedS, plainS))
}

// timeCalls returns the mean duration of f over enough calls to fill a few
// milliseconds, so a microsecond-scale function reads above timer noise.
func timeCalls(f func()) time.Duration {
	const floor = 5 * time.Millisecond
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < floor {
		f()
		calls++
	}
	return time.Since(t0) / time.Duration(calls)
}

// directInputs is what the mapper, the scheduler, the energy model and the
// accelerator constructor are called on directly, where the spans could
// not reach them: the workload's own shapes, non-zero counts, statistics
// and hardware.
type directInputs struct {
	convs, gemms []opShape
	nnz          [][]int
	capacity     int // multiplier switches the scheduler packs rounds into
	runs         []*stats.Run
	runHW        []config.Hardware // the hardware each run simulated on
	hardware     []config.Hardware // one per accelerator an iteration constructs
}

// time reports the mean cost of one mapper, scheduler and energy-model
// call over the inputs.
func (in *directInputs) time(set func(string, float64)) {
	if len(in.convs) > 0 {
		d := timeCalls(func() {
			for i := range in.convs {
				_, _ = mapper.PickConv(&in.convs[i].hw, in.convs[i].cs) // only the time matters here
			}
		})
		set("mapper.pick_conv.host_us", us(d)/float64(len(in.convs)))
	}
	if len(in.gemms) > 0 {
		d := timeCalls(func() {
			for i := range in.gemms {
				g := &in.gemms[i]
				_, _ = mapper.PickGEMM(&g.hw, g.m, g.n, g.k) // only the time matters here
			}
		})
		set("mapper.pick_gemm.host_us", us(d)/float64(len(in.gemms)))
	}
	if len(in.nnz) > 0 {
		d := timeCalls(func() {
			for _, rows := range in.nnz {
				sched.Pack(rows, in.capacity, sched.NS, 0)
			}
		})
		set("sched.pack.host_us", us(d)/float64(len(in.nnz)))
	}
	if len(in.runs) > 0 {
		tab := energy.DefaultTable()
		d := timeCalls(func() {
			for i, r := range in.runs {
				c := *r // Apply replaces the copy's energy map, not the original's
				tab.Apply(&c, &in.runHW[i])
			}
		})
		set("energy.apply.host_us", us(d)/float64(len(in.runs)))
	}
}

// timeEngineNew returns the mean cost of constructing an accelerator over
// the configurations.
func timeEngineNew(hws []config.Hardware) time.Duration {
	if len(hws) == 0 {
		return 0
	}
	d := timeCalls(func() {
		for _, hw := range hws {
			_, _ = engine.New(hw) // only the time matters here
		}
	})
	return d / time.Duration(len(hws))
}

// directTimings gathers the workload's shapes and the last iteration's
// statistics and times the layers the spans could not reach.
func (w *simWorkload) directTimings(results []*partResult, totals map[string]spanTotals, set func(string, float64)) {
	var in directInputs
	for i, p := range w.parts {
		shapes := p.shapes()
		for _, s := range shapes {
			if s.conv {
				in.convs = append(in.convs, s)
			} else {
				in.gemms = append(in.gemms, s)
			}
		}
		if rows := p.rowNNZ(); rows != nil {
			in.nnz, in.capacity = append(in.nnz, rows...), shapes[0].hw.MSSize
		}
		in.hardware = append(in.hardware, p.hardware()...)
		for ri, r := range results[i].runs {
			in.runs = append(in.runs, r)
			in.runHW = append(in.runHW, shapes[min(ri, len(shapes)-1)].hw)
		}
	}
	in.time(set)
	if t := totals["energy.apply"]; t.Calls > 0 {
		set("energy.apply.host_us", us(t.Total)/float64(t.Calls)) // the spanned calls are the real ones
	}
	if totals["engine.new"].Calls == 0 {
		n := float64(len(in.hardware))
		set("engine.new.host_ms", ms(timeEngineNew(in.hardware))*n)
		set("engine.new.calls", n)
	}
}

// accuracyAndPool runs the Table V set once for the error against RTL that
// is printed beside every simulation speed, and, where the prediction
// needs it, the set at one worker against all workers.
func accuracyAndPool(pool, smoke bool, set func(string, float64)) error {
	if smoke && !pool {
		return nil // the set costs half a second whatever the size: smoke runs it where it matters
	}
	// timeSet runs the set twice at the given worker count and returns the
	// quieter run's wall time.
	var rows []exp.TableVResult
	var mean float64
	timeSet := func(workers int) (time.Duration, error) {
		var best time.Duration
		for i := 0; i < 2; i++ {
			t0 := time.Now()
			var err error
			if rows, mean, err = exp.TableVRunPar(context.Background(), workers); err != nil {
				return 0, err
			}
			if d := time.Since(t0); i == 0 || d < best {
				best = d
			}
			if !pool {
				break // only the accuracy is wanted: once is enough
			}
		}
		return best, nil
	}
	serial, err := timeSet(1)
	if err != nil {
		return err
	}
	e := rtlErrorOf(rows, mean)
	set("engine.rtl_err_mean_pct", e.meanPct)
	set("engine.rtl_err_max_pct", e.maxPct)
	if !pool {
		return nil
	}
	// The pool needs every core, though the run is pinned to one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	parallel, err := timeSet(runtime.NumCPU())
	if err != nil {
		return err
	}
	set("simpool.map.speedup_x", ratio(serial.Seconds(), parallel.Seconds()))
	return nil
}

// foldCPUProfile folds the traced pass's CPU profile by layer.
func foldCPUProfile(gz []byte, o *outcome, set func(string, float64)) error {
	samples, err := parseCPUProfile(gz)
	if err != nil {
		return err
	}
	layers, funcs := foldProfile(samples, 20)
	for _, l := range profileLayers {
		set(l+".cpu_share", layers[l])
	}
	o.profileLayers, o.profileFuncs = rankedLayers(layers), funcs
	return nil
}
