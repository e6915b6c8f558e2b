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
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/config"
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
	modelFile := fs.String("file", "", "JSON model description (model subcommand)")
	weightsFile := fs.String("weights", "", "binary weights file (optional; random weights otherwise)")
	saveWeights := fs.String("save-weights", "", "write the weights the model ran with to this path (model subcommand)")
	batch := fs.Int("batch", 1, "independent runs with seeds seed..seed+batch-1 (gemm/spmm/conv)")
	workers := fs.Int("workers", 0, "parallel simulation jobs for -batch (0 = GOMAXPROCS, 1 = serial)")
	selfcheck := fs.Bool("selfcheck", false, "verify every simulated output against the CPU reference (gemm/spmm/conv)")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON cycle trace to this file (gemm/spmm/conv)")
	progress := fs.Bool("progress", false, "print periodic per-job progress to stderr (gemm/spmm/conv; model with -cores or -streams > 1)")
	cores := fs.Int("cores", 1, "simulated cores on the chip (model subcommand; >1 shares a banked DRAM)")
	placement := fs.String("placement", "layer", "multi-core placement policy: layer (pipeline stages) | batch (whole streams)")
	banks := fs.Int("banks", 0, "shared DRAM banks for multi-core runs (0 = default)")
	streams := fs.Int("streams", 1, "independent inference streams for multi-core model runs")
	fastforward := fs.Bool("fastforward", true, "skip provably-idle cycles (bit-exact; -fastforward=false forces the fully ticked loop)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	chip := *cores > 1 || *streams > 1
	if op == "model" && !chip && *progress {
		flagError("-progress on a model run needs -cores or -streams > 1")
	}

	hw, err := pickHW(*hwFile, *arch, *ms, *bw)
	if err != nil {
		fatal(err)
	}
	if *hwFile == "" {
		// A preset is built from -ms and -bw alone: a size it cannot take
		// (over config.MaxMSSize, not a power of two) is a bad flag value.
		if err := hw.Validate(); err != nil {
			flagError(fmt.Sprintf("-arch %s -ms %d -bw %d: %v", *arch, *ms, *bw, err))
		}
	}
	hw.Preloaded = true // user-interface mode runs from preloaded buffers
	hw.DisableFastForward = !*fastforward

	switch op {
	case "gemm", "spmm", "conv":
	case "model":
		sm, w := loadModelAndWeights(*modelFile, *weightsFile, *seed)
		pol, err := stonne.ParsePolicy(*policy)
		if err != nil {
			fatal(err)
		}
		var summary jsonWriter
		if chip {
			summary = runModelChipCmd(hw, sm, w, pol, *cores, *placement, *banks, *streams, *progress)
		} else {
			summary = runModelCmd(hw, sm, w, pol)
		}
		if *jsonOut != "" {
			if err := writeJSON(summary, *jsonOut); err != nil {
				fatal(err)
			}
		}
		if *saveWeights != "" {
			if err := w.SaveFile(*saveWeights); err != nil {
				fatal(err)
			}
		}
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
			label := fmt.Sprintf("run %d (seed %d)", i, sd)
			h := hw
			sink.instrument(&h, label)
			defer sink.board.Finish(label)
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
// concurrently executing jobs. The two are separate hooks: -trace turns on
// cycle attribution, -progress only the kernel's progress hook, so a
// display flag never changes a result. Both are invoked from pool worker
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

// instrument installs the run's hooks on h: a trace configuration when
// traces are collected, a progress hook reporting under label when
// progress is shown. With neither, h stays untouched.
func (s *traceSink) instrument(h *stonne.Hardware, label string) {
	if s.collect {
		h.Trace = &trace.Config{Label: label, OnComplete: s.complete}
	}
	if s.progress {
		h.Progress = &config.ProgressHook{Report: func(p config.Progress) { s.onProgress(label, p) }}
	}
}

func (s *traceSink) complete(rt *trace.RunTrace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces = append(s.traces, rt)
}

// onProgress updates the board and prints a throttled status line (at most
// twice per second, regardless of how many jobs report).
func (s *traceSink) onProgress(label string, p config.Progress) {
	s.board.Update(label, p.Cycles, p.Outputs, p.Occupancy, p.Skipped)
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

// jsonWriter is a result with a JSON summary: a run, a model run or a
// chip run.
type jsonWriter interface {
	WriteJSON(io.Writer) error
}

func writeJSON(v jsonWriter, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return v.WriteJSON(f)
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
// single-core and chip model runs: the seeded model draws its weights from
// seed (unless a weights file is given) and stream i's input from seed+1+i.
func loadModelAndWeights(modelFile, weightsFile string, seed uint64) (stonne.SeededModel, *stonne.Weights) {
	if modelFile == "" {
		fatal(fmt.Errorf("the subcommand needs -file <model.json>"))
	}
	m, err := stonne.LoadModelFile(modelFile)
	if err != nil {
		fatal(err)
	}
	sm := stonne.SeededModel{Model: m, Seed: seed, InputSeed: seed + 1}
	var w *stonne.Weights
	if weightsFile != "" {
		w, err = stonne.LoadWeightsFile(weightsFile)
		if err == nil {
			err = stonne.CheckWeights(m, w)
		}
	} else {
		w, err = sm.Weights()
	}
	if err != nil {
		fatal(err)
	}
	return sm, w
}

// runModelCmd runs a full model from a description file, layer by layer,
// and returns its summary.
func runModelCmd(hw stonne.Hardware, sm stonne.SeededModel, w *stonne.Weights, pol stonne.SchedPolicy) *stonne.ModelRun {
	m := sm.Model
	out, mr, err := stonne.RunModel(m, w, sm.Input(0), hw, &stonne.RunOptions{Policy: pol})
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
	return mr
}

// runModelChipCmd runs -streams inferences of the model on a simulated
// chip of -cores cores sharing a banked DRAM, prints the chip-level
// summary — per-core load, contention, makespan, and throughput — and
// returns it.
func runModelChipCmd(hw stonne.Hardware, sm stonne.SeededModel, w *stonne.Weights, pol stonne.SchedPolicy,
	cores int, placement string, banks, streams int, progress bool) *stonne.ChipRun {
	m := sm.Model
	copts := stonne.ChipOptions{Cores: cores, Placement: placement, Banks: banks}
	if progress {
		board := simpool.NewBoard()
		copts.Progress = func(core, stream, stage int, endCycle uint64) {
			board.Update(fmt.Sprintf("core%d", core), endCycle, stream+1, 0, 0)
			fmt.Fprintf(os.Stderr, "\r%s", board.Summary())
		}
		defer fmt.Fprintln(os.Stderr)
	}
	outs, cr, err := stonne.RunModelChip(context.Background(), m, w, sm.Inputs(max(streams, 1)), hw, copts, &stonne.RunOptions{Policy: pol})
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
	return cr
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: stonne <gemm|conv|spmm|model> [flags]
       stonne -list-archs
run "stonne gemm -h" for the flag list`)
}

// flagError rejects a flag combination the subcommand cannot honour, with
// the flag-parse exit status.
func flagError(msg string) {
	fmt.Fprintln(os.Stderr, "stonne:", msg)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stonne:", err)
	os.Exit(1)
}
