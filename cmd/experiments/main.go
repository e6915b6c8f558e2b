// Command experiments regenerates every table and figure of the paper's
// evaluation. Each subcommand prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured for each.
//
// Usage:
//
//	experiments <tablei|tablev|fig1a|fig1b|fig1c|fig5|fig6|fig7|fig9|fig9c|stalls|multicore|all> [flags]
//	experiments energy -counters run.counters [-ms 256] [-gb 108]
//
// Flags:
//
//	-scale N    spatial scale divisor for the DNN models (default 8);
//	            1 reproduces the full-resolution workloads (slow)
//	-models M,S machine tags to run (fig5/fig9; default: all seven)
//	-images N   input samples per model for fig6 (default 2)
//	-workers N  parallel simulation jobs (0 = GOMAXPROCS, 1 = serial)
//	-counters F counter file written by stonne -counters (energy)
//	-ms N       multiplier switches for static energy (energy; default 256)
//	-gb KB      global buffer size for static energy (energy; default 108)
//
// energy is the analogue of STONNE's energy script: the table-based energy
// model applied to a counter file — the Accelergy-style post-processing
// step of Section III.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scale := fs.Int("scale", 8, "spatial scale divisor for model workloads (1 = full resolution)")
	modelsFlag := fs.String("models", "", "comma-separated model tags (M,S,A,R,V,S-M,B); empty = all")
	images := fs.Int("images", 2, "input samples per model (fig6)")
	workers := fs.Int("workers", 0, "parallel simulation jobs (0 = GOMAXPROCS, 1 = serial)")
	counterFile := fs.String("counters", "", "counter file written by stonne -counters (energy)")
	ms := fs.Int("ms", 256, "multiplier switches, for static energy (energy)")
	gbKB := fs.Int("gb", 108, "global buffer size in KB, for static energy (energy)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	var tags []string
	if *modelsFlag != "" {
		tags = strings.Split(*modelsFlag, ",")
	}
	ctx := context.Background()

	run := func(name string) error {
		switch name {
		case "tablei":
			return tableI()
		case "tablev":
			return tableV(ctx, *workers)
		case "fig1a":
			return fig1("Figure 1a — OS systolic array, STONNE vs analytical", func() ([]exp.Fig1Row, error) { return exp.Fig1aPar(ctx, *workers, *scale) })
		case "fig1b":
			return fig1("Figure 1b — 128-mult MAERI, bandwidth sweep", func() ([]exp.Fig1Row, error) { return exp.Fig1bPar(ctx, *workers, *scale) })
		case "fig1c":
			return fig1("Figure 1c — 128-mult SIGMA, sparsity sweep", func() ([]exp.Fig1Row, error) { return exp.Fig1cPar(ctx, *workers, *scale) })
		case "fig5":
			return fig5(ctx, *workers, *scale, tags)
		case "fig6":
			return fig6(ctx, *workers, *scale, *images)
		case "fig7":
			return fig7(ctx, *workers, *scale)
		case "fig9":
			return fig9(ctx, *workers, *scale, tags)
		case "fig9c":
			return fig9c(ctx, *workers, *scale)
		case "stalls":
			return stalls(ctx, *workers, *scale)
		case "multicore":
			return multicore(*scale)
		case "energy":
			return energyReport(*counterFile, *ms, *gbKB)
		default:
			usage()
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	var names []string
	if cmd == "all" {
		names = []string{"tablei", "tablev", "fig1a", "fig1b", "fig1c", "fig5", "fig6", "fig7", "fig9", "fig9c"}
	} else {
		names = []string{cmd}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", n, err)
			os.Exit(1)
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: experiments <tablei|tablev|fig1a|fig1b|fig1c|fig5|fig6|fig7|fig9|fig9c|stalls|multicore|all> [-scale N] [-models tags] [-images N] [-workers N]
       experiments energy -counters <file> [-ms N] [-gb KB]`)
}

// energyReport prints the per-component and total energy of a counter
// file's run and, for a traced run, the static energy its tiers burned in
// non-busy cycles.
func energyReport(path string, ms, gbKB int) error {
	if path == "" {
		return fmt.Errorf("needs -counters <file>")
	}
	text, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	run, err := stats.ParseCounterFile(string(text))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	hw := config.MAERILike(ms, 1) // only MSSize and GBSizeKB matter here
	hw.GBSizeKB = gbKB
	tbl := energy.DefaultTable()
	tbl.Apply(run, &hw)

	fmt.Printf("cycles: %d\n", run.Cycles)
	var total float64
	for _, c := range sortedKeys(run.Energy) {
		total += run.Energy[c]
		fmt.Printf("%-5s %12.4f µJ\n", c, run.Energy[c])
	}
	fmt.Printf("%-5s %12.4f µJ\n", "TOTAL", total)

	stalled := tbl.StalledStatic(run, &hw)
	if stalled == nil {
		return nil
	}
	fmt.Println("\nstatic energy spent in non-busy cycles (stall + drain + idle):")
	var stalledTotal float64
	for _, t := range sortedKeys(stalled) {
		b := run.Breakdown[t]
		stalledTotal += stalled[t]
		fmt.Printf("%-5s %12.4f µJ (%d of %d cycles non-busy)\n",
			t, stalled[t], b.Total()-b.Busy, b.Total())
	}
	fmt.Printf("%-5s %12.4f µJ\n", "TOTAL", stalledTotal)
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// multicore prints the chip scaling figure: core-count sweep under both
// placement policies, with the contention the shared memory charges.
func multicore(scale int) error {
	fmt.Println("== Multi-core chip scaling — MobileNets, layer vs batch placement ==")
	rows, err := exp.Multicore(scale)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %6s %8s %12s %12s %11s %8s %12s\n",
		"place", "cores", "streams", "makespan", "serial", "str/Mcyc", "speedup", "icn-wait")
	for _, r := range rows {
		fmt.Printf("%-6s %6d %8d %12d %12d %11.3f %7.2fx %12d\n",
			r.Placement, r.Cores, r.Streams, r.MakespanCycles, r.SerialCycles,
			r.Throughput, r.Speedup, r.ICNWaitCycles)
	}
	fmt.Println()
	return nil
}

// stalls prints the per-tier cycle attribution of the traced Fig. 1b points
// (MAERI under a shrinking-bandwidth sweep) and of the Fig. 1a 16x16 points,
// the rigid TPU reference: where Fig. 1b's extra cycles go, not just how
// many there are.
func stalls(ctx context.Context, workers, scale int) error {
	fmt.Println("== Stall breakdown — 128-mult MAERI bandwidth sweep vs 16x16 TPU ==")
	maeri, err := exp.Fig1bPar(ctx, workers, scale)
	if err != nil {
		return err
	}
	tpu, err := exp.Fig1aPar(ctx, workers, scale)
	if err != nil {
		return err
	}
	fmt.Printf("%-7s %4s %-7s %10s  %7s %8s %8s  %7s %8s %8s  %7s\n",
		"Arch", "BW", "Layer", "Cycles",
		"DNbusy", "DNst-in", "DNst-bw",
		"MNbusy", "MNst-in", "MNst-bw", "MEMbusy")
	row := func(arch, bw string, r exp.Fig1Row) {
		pct := func(v uint64) float64 {
			if r.ST == 0 {
				return 0
			}
			return 100 * (float64(v) / float64(r.ST))
		}
		dn, mn := r.Breakdown["DN"], r.Breakdown["MN"]
		fmt.Printf("%-7s %4s %-7s %10d  %6.1f%% %7.1f%% %7.1f%%  %6.1f%% %7.1f%% %7.1f%%  %6.1f%%\n",
			arch, bw, r.Layer, r.ST,
			pct(dn.Busy), pct(dn.StallInput), pct(dn.StallBandwidth),
			pct(mn.Busy), pct(mn.StallInput), pct(mn.StallBandwidth),
			pct(r.Breakdown["MEM"].Busy))
	}
	for _, r := range maeri {
		row("maeri", strings.TrimPrefix(r.Config, "bw="), r)
	}
	for _, r := range tpu {
		if r.Config == "16x16" {
			row("tpu", "32", r) // the 16x16 array's preset bandwidth
		}
	}
	fmt.Println()
	return nil
}

func tableI() error {
	fmt.Println("== Table I — contemporary DNN models ==")
	fmt.Printf("%-16s %-20s %9s %12s %8s\n", "Model", "Domain", "Sparsity", "MACs(dense)", "Layers")
	for _, m := range dnn.AllModels() {
		fmt.Printf("%-16s %-20s %8.0f%% %12.3g %8d\n",
			m.Name, m.Domain, m.Sparsity*100, float64(m.TotalMACs()), len(m.OffloadedLayers()))
	}
	fmt.Println()
	return nil
}

func tableV(ctx context.Context, workers int) error {
	fmt.Println("== Table V — timing validation vs published RTL cycle counts ==")
	rows, avg, err := exp.TableVRunPar(ctx, workers)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-9s %5s %5s %5s %9s %9s %9s %8s %8s\n",
		"Design", "Layer", "M", "N", "K", "RTL", "origST", "thisST", "err/RTL", "err/orig")
	for _, r := range rows {
		fmt.Printf("%-8s %-9s %5d %5d %5d %9d %9d %9d %7.1f%% %7.1f%%\n",
			r.Design, r.Layer, r.M, r.N, r.K, r.RTL, r.STONNE, r.Got, 100*r.ErrRTL, 100*r.ErrOrig)
	}
	fmt.Printf("average |error| vs RTL: %.2f%% (paper's own STONNE: 1.53%%)\n\n", 100*avg)
	return nil
}

func fig1(title string, f func() ([]exp.Fig1Row, error)) error {
	fmt.Println("==", title, "==")
	rows, err := f()
	if err != nil {
		return err
	}
	fmt.Printf("%-7s %-10s %12s %12s %8s\n", "Layer", "Config", "ST(cycles)", "AM(cycles)", "ST/AM")
	for _, r := range rows {
		fmt.Printf("%-7s %-10s %12d %12.0f %8.2f\n", r.Layer, r.Config, r.ST, r.AM, r.RatioSTOverAM())
	}
	fmt.Println()
	return nil
}

func fig5(ctx context.Context, workers, scale int, tags []string) error {
	fmt.Println("== Figure 5 — TPU vs MAERI vs SIGMA: full-model cycles, energy, area ==")
	rows, err := exp.Fig5Par(ctx, workers, scale, tags)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %-11s %12s %7s %10s  %s\n", "Model", "Arch", "Cycles", "Util", "Energy µJ", "breakdown GB/DN/MN/RN %")
	for _, r := range rows {
		fmt.Printf("%-16s %-11s %12d %6.1f%% %10.1f  %s\n",
			r.Model, r.Arch, r.Cycles, 100*r.Utilization, r.TotalEnergy, breakdownPct(r.EnergyUJ, r.TotalEnergy))
	}
	fmt.Println()
	fmt.Printf("%-11s %12s  %s\n", "Arch", "Area µm²", "breakdown GB/DN/MN/RN %")
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Arch] {
			continue
		}
		seen[r.Arch] = true
		fmt.Printf("%-11s %12.0f  %s\n", r.Arch, r.TotalArea, breakdownPct(r.AreaUM2, r.TotalArea))
	}
	fmt.Println()
	// Headline ratios of Section VI-A.
	agg := map[string]uint64{}
	en := map[string]float64{}
	for _, r := range rows {
		agg[r.Arch] += r.Cycles
		en[r.Arch] += r.TotalEnergy
	}
	if agg["TPU-like"] > 0 && agg["MAERI-like"] > 0 && agg["SIGMA-like"] > 0 {
		fmt.Printf("speedup MAERI vs TPU: %.2fx (paper ~1.20x) | SIGMA vs MAERI: %.2fx (paper ~1.91x)\n",
			float64(agg["TPU-like"])/float64(agg["MAERI-like"]),
			float64(agg["MAERI-like"])/float64(agg["SIGMA-like"]))
		fmt.Printf("energy SIGMA/MAERI: %.2f (paper ~0.30) | SIGMA/TPU: %.2f (paper ~0.46)\n\n",
			en["SIGMA-like"]/en["MAERI-like"], en["SIGMA-like"]/en["TPU-like"])
	}
	return nil
}

func breakdownPct(br map[string]float64, total float64) string {
	if total == 0 {
		return "-"
	}
	keys := []string{"GB", "DN", "MN", "RN"}
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%.0f%%", k, 100*br[k]/total))
	}
	return strings.Join(parts, " ")
}

func fig6(ctx context.Context, workers, scale, images int) error {
	fmt.Println("== Figure 6 — SNAPEA vs baseline on four CNNs ==")
	rows, err := exp.Fig6Par(ctx, workers, scale, images)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %9s %11s %9s %9s\n", "Model", "Speedup", "EnergyNorm", "OpsNorm", "MemNorm")
	var sp, en, op, me float64
	for _, r := range rows {
		fmt.Printf("%-12s %8.2fx %11.2f %9.2f %9.2f\n", r.Model, r.Speedup, r.EnergyNorm, r.OpsNorm, r.MemNorm)
		sp += r.Speedup
		en += r.EnergyNorm
		op += r.OpsNorm
		me += r.MemNorm
	}
	n := float64(len(rows))
	fmt.Printf("%-12s %8.2fx %11.2f %9.2f %9.2f   (paper: 1.35x, 0.79, 0.70, 0.84)\n\n",
		"average", sp/n, en/n, op/n, me/n)
	return nil
}

func fig7(ctx context.Context, workers, scale int) error {
	fmt.Println("== Figure 7 — filter mapping on a 256-MS sparse fabric ==")
	a, b, err := exp.Fig7Par(ctx, workers, scale)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %s\n", "Model", "avg entire filters per round (7a)")
	for _, r := range a {
		fmt.Printf("%-16s %.2f\n", r.Model, r.AvgFilters)
	}
	fmt.Println()
	fmt.Printf("%-16s %s\n", "Model", "first-layer filter sizes, largest 8 (7b)")
	for _, r := range b {
		sizes := r.Sizes
		if len(sizes) > 8 {
			sizes = sizes[:8]
		}
		fmt.Printf("%-16s %v (of %d filters)\n", r.Model, sizes, len(r.Sizes))
	}
	fmt.Println()
	return nil
}

func fig9(ctx context.Context, workers, scale int, tags []string) error {
	fmt.Println("== Figure 9a/9b — filter scheduling (NS / RDM / LFF) ==")
	rows, err := exp.Fig9Par(ctx, workers, scale, tags)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %-6s %12s %7s %12s %12s\n", "Model", "Policy", "Cycles", "Util", "NormRuntime", "NormEnergy")
	var lffSum float64
	var lffN int
	for _, r := range rows {
		fmt.Printf("%-16s %-6s %12d %6.1f%% %12.3f %12.3f\n",
			r.Model, r.Policy, r.Cycles, 100*r.Utilization, r.NormRuntime, r.NormEnergy)
		if r.Policy == "LFF" {
			lffSum += r.NormRuntime
			lffN++
		}
	}
	if lffN > 0 {
		fmt.Printf("LFF mean normalized runtime: %.3f (paper: ~0.93 on average)\n\n", lffSum/float64(lffN))
	}
	return nil
}

func fig9c(ctx context.Context, workers, scale int) error {
	fmt.Println("== Figure 9c — Resnets-50 per-layer LFF sensitivity ==")
	rows, err := exp.Fig9cPar(ctx, workers, scale)
	if err != nil {
		return err
	}
	// Show the paper's three sensitivity classes: 5 most improved, 4 from
	// the middle, 5 least improved — 14 representative layers.
	pick := representative14(len(rows))
	fmt.Printf("%-16s %12s %11s %9s\n", "Layer", "NormRuntime", "NormEnergy", "UtilGain")
	for _, i := range pick {
		r := rows[i]
		fmt.Printf("%-16s %12.3f %11.3f %8.1f%%\n", r.Layer, r.NormRuntime, r.NormEnergy, 100*r.UtilGain)
	}
	fmt.Println()
	return nil
}

func representative14(n int) []int {
	if n <= 14 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	var idx []int
	for i := 0; i < 5; i++ {
		idx = append(idx, i)
	}
	mid := n / 2
	for i := mid - 2; i < mid+2; i++ {
		idx = append(idx, i)
	}
	for i := n - 5; i < n; i++ {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}
