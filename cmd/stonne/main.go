// Command stonne is the "STONNE User Interface" of the paper (Fig. 2):
// it loads any layer or GEMM with any dimensions onto a selected simulator
// instance, runs it with deterministic random tensors, and reports the
// statistics — the fast path for prototyping and debugging without the
// full DL-framework front end.
//
// Examples:
//
//	stonne gemm -arch maeri -ms 128 -bw 32 -M 64 -N 64 -K 256
//	stonne conv -arch tpu -ms 256 -R 3 -S 3 -C 64 -K 64 -X 56 -Y 56
//	stonne spmm -arch sigma -ms 256 -bw 128 -M 128 -N 128 -K 512 -sparsity 0.8 -policy LFF
//	stonne gemm -hw my_hw.cfg -M 32 -N 32 -K 64 -json out.json -counters out.counters
//	stonne gemm -arch maeri -M 64 -N 64 -K 256 -batch 8 -workers 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/simpool"
	"repro/internal/trace"
	"repro/stonne"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	op := os.Args[1]
	if op == "-list-archs" || op == "--list-archs" || op == "list-archs" {
		listArchs()
		return
	}
	fs := flag.NewFlagSet(op, flag.ExitOnError)

	arch := fs.String("arch", "maeri", "preset architecture: tpu | maeri | sigma | snapea")
	hwFile := fs.String("hw", "", "hardware configuration file (overrides -arch)")
	ms := fs.Int("ms", 256, "number of multiplier switches")
	bw := fs.Int("bw", 128, "GB bandwidth in elements/cycle")
	mDim := fs.Int("M", 16, "GEMM M")
	nDim := fs.Int("N", 16, "GEMM N")
	kDim := fs.Int("K", 16, "GEMM K")
	rDim := fs.Int("R", 3, "filter rows")
	sDim := fs.Int("S", 3, "filter columns")
	cDim := fs.Int("C", 16, "input channels")
	gDim := fs.Int("G", 1, "groups")
	kFil := fs.Int("Kf", 16, "filters")
	xDim := fs.Int("X", 16, "input rows")
	yDim := fs.Int("Y", 16, "input columns")
	stride := fs.Int("stride", 1, "stride")
	pad := fs.Int("pad", 0, "padding")
	sparsity := fs.Float64("sparsity", 0.8, "MK weight sparsity for spmm")
	policy := fs.String("policy", "NS", "filter scheduling policy: NS | RDM | LFF")
	seed := fs.Uint64("seed", 1, "random tensor seed")
	jsonOut := fs.String("json", "", "write the JSON summary to this file")
	counterOut := fs.String("counters", "", "write the counter file to this path")
	modelFile := fs.String("file", "", "JSON model description (model/train subcommands)")
	weightsFile := fs.String("weights", "", "binary weights file (optional; random weights otherwise)")
	saveWeights := fs.String("save-weights", "", "write the (generated or trained) weights to this path")
	label := fs.Int("label", 0, "target class for the train subcommand")
	lr := fs.Float64("lr", 0.01, "SGD learning rate for the train subcommand")
	steps := fs.Int("steps", 1, "SGD steps for the train subcommand")
	batch := fs.Int("batch", 1, "independent runs with seeds seed..seed+batch-1 (gemm/spmm/conv)")
	workers := fs.Int("workers", 0, "parallel simulation jobs for -batch (0 = GOMAXPROCS, 1 = serial)")
	selfcheck := fs.Bool("selfcheck", false, "verify every simulated output against the CPU reference (gemm/spmm/conv)")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON cycle trace to this file (gemm/spmm/conv)")
	progress := fs.Bool("progress", false, "print periodic per-job progress to stderr (gemm/spmm/conv/model)")
	cores := fs.Int("cores", 1, "simulated cores on the chip (model subcommand; >1 shares a banked DRAM)")
	placement := fs.String("placement", "layer", "multi-core placement policy: layer (pipeline stages) | batch (whole streams)")
	banks := fs.Int("banks", 0, "shared DRAM banks for multi-core runs (0 = default)")
	streams := fs.Int("streams", 1, "independent inference streams for multi-core model runs")
	fastforward := fs.Bool("fastforward", true, "skip provably-idle cycles (bit-exact; -fastforward=false forces the fully ticked loop)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	hw, err := pickHW(*hwFile, *arch, *ms, *bw)
	if err != nil {
		fatal(err)
	}
	hw.Preloaded = true // user-interface mode runs from preloaded buffers
	hw.DisableFastForward = !*fastforward

	switch op {
	case "gemm", "spmm", "conv":
	case "model":
		if *cores > 1 || *streams > 1 {
			runModelChipCmd(hw, *modelFile, *weightsFile, *policy, *seed,
				*cores, *placement, *banks, *streams, *progress)
		} else {
			runModelCmd(hw, *modelFile, *weightsFile, *saveWeights, *policy, *seed)
		}
		return
	case "train":
		runTrainCmd(hw, *modelFile, *weightsFile, *saveWeights, *label, *lr, *steps, *seed)
		return
	default:
		usage()
		os.Exit(2)
	}

	sop := stonne.SeededOp{
		Op: op, M: *mDim, N: *nDim, K: *kDim,
		Sparsity: *sparsity, Policy: *policy,
	}
	if op == "conv" {
		sop.Conv = &stonne.ConvShape{
			R: *rDim, S: *sDim, C: *cDim, G: *gDim, K: *kFil, N: 1,
			X: *xDim, Y: *yDim, Stride: *stride, Padding: *pad,
		}
	}
	checked, err := sop.Check()
	if err != nil {
		fatal(err)
	}
	if *batch < 1 {
		*batch = 1
	}
	seeds := make([]uint64, *batch)
	for i := range seeds {
		seeds[i] = *seed + uint64(i)
	}
	sink := newTraceSink(*traceOut != "", *progress)
	runs, err := simpool.Map(context.Background(), *workers, seeds,
		func(_ context.Context, i int, sd uint64) (*stonne.Run, error) {
			h := hw
			if cfg := sink.configFor(fmt.Sprintf("run %d (seed %d)", i, sd)); cfg != nil {
				h.Trace = cfg
			}
			// Each run builds its own simulator instance, so batched runs
			// share nothing.
			inst, err := stonne.CreateInstance(h)
			if err != nil {
				return nil, err
			}
			if *selfcheck {
				inst.EnableSelfCheck()
			}
			_, run, err := inst.RunSeededOp(checked, sd)
			return run, err
		})
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		if werr := sink.writeChrome(*traceOut); werr != nil {
			fatal(werr)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (open in https://ui.perfetto.dev)\n", *traceOut)
	}
	for i, run := range runs {
		if *batch > 1 {
			fmt.Printf("== run %d (seed %d) ==\n", i, seeds[i])
		}
		printRun(run)
		if *jsonOut != "" {
			if err := writeJSON(run, batchPath(*jsonOut, i, *batch)); err != nil {
				fatal(err)
			}
		}
		if *counterOut != "" {
			if err := os.WriteFile(batchPath(*counterOut, i, *batch), []byte(run.CounterFile()), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	if *selfcheck {
		// A failed check surfaces as a run error above, so reaching this
		// point means every output matched the CPU reference.
		fmt.Printf("self-check  : %d run(s) verified against the CPU reference\n", len(runs))
	}
}

// traceSink collects completed run traces and live progress samples from
// concurrently executing jobs. Both hooks are invoked from pool worker
// goroutines, so all state is mutex-guarded.
type traceSink struct {
	collect  bool
	progress bool

	mu        sync.Mutex
	traces    []*trace.RunTrace
	board     *simpool.Board
	lastPrint time.Time
}

func newTraceSink(collect, progress bool) *traceSink {
	return &traceSink{collect: collect, progress: progress, board: simpool.NewBoard()}
}

// configFor builds the per-job trace configuration, or nil when neither
// tracing nor progress reporting is enabled (leaving the run untraced).
func (s *traceSink) configFor(label string) *trace.Config {
	if !s.collect && !s.progress {
		return nil
	}
	cfg := &trace.Config{Label: label}
	if s.collect {
		cfg.OnComplete = s.complete
	}
	if s.progress {
		cfg.ProgressEvery = 4096
		cfg.OnProgress = s.onProgress
	}
	return cfg
}

func (s *traceSink) complete(rt *trace.RunTrace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces = append(s.traces, rt)
	s.board.Finish(rt.Label)
}

// onProgress updates the board and prints a throttled status line (at most
// twice per second, regardless of how many jobs report).
func (s *traceSink) onProgress(p trace.Progress) {
	s.board.Update(p.Label, p.Cycles, p.Outputs, p.Occupancy, p.Skipped)
	s.mu.Lock()
	defer s.mu.Unlock()
	if now := time.Now(); now.Sub(s.lastPrint) >= 500*time.Millisecond {
		s.lastPrint = now
		fmt.Fprintf(os.Stderr, "progress: %s\n", s.board.Summary())
	}
}

func (s *traceSink) writeChrome(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.WriteChrome(f, s.traces)
}

func printRun(run *stonne.Run) {
	fmt.Printf("accelerator : %s\n", run.Accelerator)
	fmt.Printf("operation   : %s (M=%d N=%d K=%d)\n", run.Op, run.M, run.N, run.K)
	fmt.Printf("cycles      : %d\n", run.Cycles)
	fmt.Printf("time @1GHz  : %.3f µs\n", run.TimeSeconds(1)*1e6)
	fmt.Printf("MACs        : %d\n", run.MACs)
	fmt.Printf("utilization : %.1f%%\n", 100*run.Utilization)
	fmt.Printf("mem accesses: %d\n", run.MemAccesses)
	fmt.Printf("energy      : %.3f µJ\n", run.TotalEnergy())
	for _, comp := range []string{"GB", "DN", "MN", "RN"} {
		if v, ok := run.Energy[comp]; ok {
			fmt.Printf("  %-4s %10.4f µJ\n", comp, v)
		}
	}
	if len(run.Breakdown) > 0 {
		fmt.Printf("cycle breakdown (%% of %d cycles):\n", run.Cycles)
		fmt.Printf("  %-4s %7s %9s %9s %7s %7s\n", "tier", "busy", "stall-in", "stall-bw", "drain", "idle")
		for _, tier := range []string{"DN", "MN", "RN", "MEM"} {
			b, ok := run.Breakdown[tier]
			if !ok {
				continue
			}
			pct := func(v uint64) float64 {
				if run.Cycles == 0 {
					return 0
				}
				return 100 * float64(v) / float64(run.Cycles)
			}
			fmt.Printf("  %-4s %6.1f%% %8.1f%% %8.1f%% %6.1f%% %6.1f%%\n",
				tier, pct(b.Busy), pct(b.StallInput), pct(b.StallBandwidth), pct(b.Drain), pct(b.Idle))
		}
	}
}

// batchPath suffixes an output path with the run index when batching, so
// -batch 1 keeps the exact path the user asked for.
func batchPath(path string, i, batch int) string {
	if batch == 1 {
		return path
	}
	return fmt.Sprintf("%s.%d", path, i)
}

func writeJSON(run *stonne.Run, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return run.WriteJSON(f)
}

func pickHW(file, arch string, ms, bw int) (stonne.Hardware, error) {
	if file != "" {
		inst, err := stonne.CreateInstanceFromFile(file)
		if err != nil {
			return stonne.Hardware{}, err
		}
		return inst.HW(), nil
	}
	return sim.PresetHW(arch, ms, bw)
}

// listArchs prints the architecture registry — every composition this
// build can simulate, in registration order.
func listArchs() {
	fmt.Println("registered architectures:")
	for _, a := range sim.List() {
		fmt.Printf("  %-8s %-18s %s\n", a.Name, a.Title, a.Description)
	}
}

// loadModelAndWeights resolves the model/weights flags shared by the
// model and train subcommands.
func loadModelAndWeights(modelFile, weightsFile string, seed uint64) (*stonne.Model, *stonne.Weights, *stonne.Tensor) {
	if modelFile == "" {
		fatal(fmt.Errorf("the subcommand needs -file <model.json>"))
	}
	m, err := stonne.LoadModelFile(modelFile)
	if err != nil {
		fatal(err)
	}
	var w *stonne.Weights
	if weightsFile != "" {
		w, err = stonne.LoadWeightsFile(weightsFile)
		if err != nil {
			fatal(err)
		}
		if err := stonne.CheckWeights(m, w); err != nil {
			fatal(err)
		}
	} else {
		w = stonne.InitWeights(m, seed)
		if err := w.Prune(m.Sparsity); err != nil {
			fatal(err)
		}
	}
	return m, w, stonne.RandomInput(m, seed+1)
}

// runModelCmd runs a full model from a description file, layer by layer.
func runModelCmd(hw stonne.Hardware, modelFile, weightsFile, saveWeights, policy string, seed uint64) {
	m, w, input := loadModelAndWeights(modelFile, weightsFile, seed)
	pol, err := stonne.ParsePolicy(policy)
	if err != nil {
		fatal(err)
	}
	out, mr, err := stonne.RunModel(m, w, input, hw, &stonne.RunOptions{Policy: pol})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model %s on %s\n\n", m.Name, hw.Name)
	fmt.Printf("%-14s %-5s %10s %8s %12s\n", "layer", "op", "cycles", "util", "energy µJ")
	for _, r := range mr.Runs {
		fmt.Printf("%-14s %-5s %10d %7.1f%% %12.4f\n",
			r.Layer, r.Op, r.Cycles, 100*r.Utilization, r.TotalEnergy())
	}
	fmt.Printf("\ntotal: %d cycles, %.3f µJ, output shape %v\n",
		mr.TotalCycles(), mr.TotalEnergy(), out.Shape())
	if saveWeights != "" {
		if err := w.SaveFile(saveWeights); err != nil {
			fatal(err)
		}
	}
}

// runModelChipCmd runs -streams inferences of the model on a simulated
// chip of -cores cores sharing a banked DRAM, and prints the chip-level
// summary: per-core load, contention, makespan, and throughput.
func runModelChipCmd(hw stonne.Hardware, modelFile, weightsFile, policy string, seed uint64,
	cores int, placement string, banks, streams int, progress bool) {
	m, w, _ := loadModelAndWeights(modelFile, weightsFile, seed)
	pol, err := stonne.ParsePolicy(policy)
	if err != nil {
		fatal(err)
	}
	if streams < 1 {
		streams = 1
	}
	inputs := make([]*stonne.Tensor, streams)
	for i := range inputs {
		inputs[i] = stonne.RandomInput(m, seed+1+uint64(i))
	}
	copts := stonne.ChipOptions{Cores: cores, Placement: placement, Banks: banks}
	if progress {
		board := simpool.NewBoard()
		copts.Progress = func(core, stream, stage int, endCycle uint64) {
			board.Update(fmt.Sprintf("core%d", core), endCycle, stream+1, 0, 0)
			fmt.Fprintf(os.Stderr, "\r%s", board.Summary())
		}
		defer fmt.Fprintln(os.Stderr)
	}
	outs, cr, err := stonne.RunModelChip(context.Background(), m, w, inputs, hw, copts, &stonne.RunOptions{Policy: pol})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model %s on %d× %s (%s placement, %d banks, %d streams)\n\n",
		m.Name, cr.Cores, hw.Name, cr.Placement, cr.Banks, cr.Streams)
	fmt.Printf("%-6s %12s %8s %12s\n", "core", "cycles", "util", "energy µJ")
	for i, r := range cr.PerCore {
		fmt.Printf("core%-2d %12d %7.1f%% %12.4f\n", i, r.Cycles, 100*r.Utilization, r.TotalEnergy())
	}
	fmt.Printf("\nmakespan: %d cycles (serial work %d, icn wait %d)\n",
		cr.MakespanCycles, cr.Total.Cycles, cr.ICNWaitCycles())
	fmt.Printf("throughput: %.3f streams/Mcycle, output shape %v\n",
		cr.Throughput(), outs[0].Shape())
}

// runTrainCmd runs SGD steps with every GEMM simulated on the accelerator.
func runTrainCmd(hw stonne.Hardware, modelFile, weightsFile, saveWeights string, label int, lr float64, steps int, seed uint64) {
	m, w, input := loadModelAndWeights(modelFile, weightsFile, seed)
	fmt.Printf("training %s on %s (label %d, lr %g)\n\n", m.Name, hw.Name, label, lr)
	for step := 0; step < steps; step++ {
		res, err := stonne.RunTrainingStep(m, w, input, label, hw)
		if err != nil {
			fatal(err)
		}
		if err := stonne.ApplySGD(w, res.Grads, lr); err != nil {
			fatal(err)
		}
		fmt.Printf("step %2d: loss %.4f, %d simulated GEMMs, %d cycles\n",
			step, res.Loss, len(res.Stats.Runs), res.Stats.TotalCycles())
	}
	if saveWeights != "" {
		if err := w.SaveFile(saveWeights); err != nil {
			fatal(err)
		}
		fmt.Printf("weights saved to %s\n", saveWeights)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: stonne <gemm|conv|spmm|model|train> [flags]
       stonne -list-archs
run "stonne gemm -h" for the flag list`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stonne:", err)
	os.Exit(1)
}
