package main

// This file is the benchmark's vocabulary: every workload, every
// end-to-end metric with its regression bound, and every per-layer metric
// with the end-to-end metric it is predicted to move. BENCHMARK.json at the
// repository root restates the names, units, directions and bounds (the
// test suite keeps the two in step); the predictions and definitions live
// here and in README.md.

type workloadDef struct {
	Name string
	Kind string // simulatorKind or serverKind
	Why  string
}

// The two kinds of workload: calls into the simulator one after another,
// and requests to an in-process server.
const (
	simulatorKind = "simulator"
	serverKind    = "serve"
)

var workloadCatalog = []workloadDef{
	{"model-flex", simulatorKind, "Compute-bound flexible fabrics (MobileNets on MAERI-like, SqueezeNet on SIGMA-like): the ticked sim.Kernel loop over dn/mn/rn/comp does the work; fast-forward and the rigid runners do nothing."},
	{"model-rigid", simulatorKind, "The same engine/dnn/stonne layers on the rigid runners (TPU-like systolic tiles, SNAPEA lanes with early cut) that never build a sim.Kernel: a fabric-loop change must not move it."},
	{"gemm-starved", simulatorKind, "One MAERI GEMM with DRAM at 0.25 GB/s: about 93% of cycles are certified-idle barrier stalls, so sim fast-forward and mem.DRAM lookahead dominate and the fabric code does little."},
	{"tablev-rtl", simulatorKind, "The eleven Table V RTL-validation microbenchmarks: the accuracy anchor (published RTL counts) and the short-op mix where engine.New and per-run set-up dominate, not the cycle loop."},
	{"chip-4core", simulatorKind, "SqueezeNet, 4 streams on 4 TPU-like cores, layer then batch placement: the only path through sim.Chip's scheduler and mem.SharedDRAM; contention is large under layer, small under batch."},
	{"serve-warm", serverKind, "POST /jobs for 64 pre-warmed jobs on an in-process server, closed loop: all memory-tier hits, so decode, resolve, jobkey hash, Cache.Get and the write are the work; the simulator does none."},
	{"serve-cold", serverKind, "Every job unique on a server with a disk tier: open-loop Poisson arrivals for latency, then a closed loop for jobs/s: admission, engine.New, simulate, marshal, Cache.Put and DiskStore.Save."},
	{"serve-disk", serverKind, "A fresh server per iteration over a filled cache directory with a one-entry memory cache: every request is a disk-tier hit (DiskStore.Load, checksum, promote); the simulator is bypassed."},
}

// endToEndDef is one gated metric of the untraced pass. The acceptance
// driver reads every metric from every workload, so every workload reports
// every one of them; On names the kind of workload on which the metric is a
// measurement of its own. On the other kind it restates another metric in
// another unit (an iteration of a simulator workload is its one operation, so
// req_per_s is 1/host_s and both latencies are host_s in ms; a block of a
// serve workload is a fixed number of requests, so host_s is block/req_per_s
// and sim_cycles_per_s is req_per_s times the cycles of a result), and
// -compare leaves those rows out.
type endToEndDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median it may worsen by
	On     string  // simulatorKind, serverKind, or "" for every workload
	Def    string
}

// appliesTo reports whether the metric is a measurement of its own on w.
func (d endToEndDef) appliesTo(w workloadDef) bool { return d.On == "" || d.On == w.Kind }

var endToEndCatalog = []endToEndDef{
	{"setup_s", "s", "lower", 0.25, "", "wall time from nothing to ready for the first timed iteration: inputs, weights, pruning, native reference, servers, pre-warm, cache fill and one untimed warm-up iteration; median of at least three set-ups"},
	{"host_s", "s", "lower", 0.25, simulatorKind, "wall time of one iteration (simulator workloads: the calls in the workload table; serve workloads: one block of requests), the quietest iteration of the run"},
	{"sim_cycles_per_s", "cycles/s", "higher", 0.25, simulatorKind, "simulated cycles an iteration accounts for (summed per-op cycles; on serve workloads the total_cycles of the results returned) divided by its wall time, the quietest iteration"},
	{"alloc_mb", "MB", "lower", 0.05, "", "median heap allocated per iteration (runtime.MemStats.TotalAlloc delta; per 1000 requests on serve workloads)"},
	{"req_per_s", "req/s", "higher", 0.25, serverKind, "operations completed per second of a closed-loop iteration, the quietest iteration (an operation is a request on serve workloads, an iteration elsewhere)"},
	{"latency_p50_ms", "ms", "lower", 0.25, serverKind, "median time a caller waits for one operation of the closed loop: taken in each of up to eight windows of the run, the median across windows"},
	{"latency_p90_ms", "ms", "lower", 0.25, serverKind, "p90 of the same, nearest rank per window, the median across windows; a window of requests keeps ten samples beyond the percentile, so short phases use fewer windows"},
}

// extraNames are reported beside the gated metrics, where they apply, in
// the detail file and the full report: exact values a speed-only change
// must leave identical, accuracy against the RTL reference, and timings
// that only some workloads can support.
var extraNames = []string{
	"failed_share", "peak_rss_mb", "latency_p99_ms", "rtl_err_mean_pct", "rtl_err_max_pct",
	"sim_cycles", "stats_digest", "result_digest", "iterations", "samples", "gomaxprocs",
	"host_s_median", "host_s_q1", "host_s_q3", "req_per_s_mean",
	"latency_p50_ms_quietest_window", "latency_p90_ms_quietest_window",
}

// perLayerDef is one metric of the traced pass and the end-to-end metric
// (and workload) a change to it is predicted to move.
type perLayerDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

var perLayerCatalog = buildPerLayerCatalog()

func buildPerLayerCatalog() []perLayerDef {
	out := []perLayerDef{
		// Root spans around the program's entry points.
		{"stonne.run_model.host_ms", "ms", "lower", "host_s on model-flex, model-rigid"},
		{"stonne.run_model_chip.layer.host_ms", "ms", "lower", "host_s on chip-4core"},
		{"stonne.run_model_chip.batch.host_ms", "ms", "lower", "host_s on chip-4core"},
		// Engine calls, per iteration.
		{"engine.new.host_ms", "ms", "lower", "host_s on tablev-rtl; latency_p50_ms on serve-cold"},
		{"engine.new.calls", "count", "lower", "host_s on tablev-rtl"},
		{"engine.run_conv.host_ms", "ms", "lower", "host_s on model-flex"},
		{"engine.run_conv.calls", "count", "lower", "host_s on model-flex"},
		{"engine.run_gemm.host_ms", "ms", "lower", "host_s on model-flex, model-rigid, gemm-starved"},
		{"engine.run_gemm.calls", "count", "lower", "host_s on model-flex, model-rigid"},
		{"engine.run_spmm.host_ms", "ms", "lower", "host_s on model-flex"},
		{"engine.run_spmm.calls", "count", "lower", "host_s on model-flex"},
		{"engine.run_snapea_conv.host_ms", "ms", "lower", "host_s on model-rigid"},
		{"engine.run_snapea_conv.calls", "count", "lower", "host_s on model-rigid"},
		{"engine.tpu.ns_per_sim_cycle", "ns/cycle", "lower", "host_s, sim_cycles_per_s on model-rigid; none on model-flex"},
		{"engine.maeri.ns_per_sim_cycle", "ns/cycle", "lower", "host_s, sim_cycles_per_s on model-flex, gemm-starved; none on model-rigid"},
		{"engine.sigma.ns_per_sim_cycle", "ns/cycle", "lower", "host_s, sim_cycles_per_s on model-flex; none on model-rigid"},
		{"engine.snapea.ns_per_sim_cycle", "ns/cycle", "lower", "host_s, sim_cycles_per_s on model-rigid; none on model-flex"},
		{"engine.rtl_err_mean_pct", "%", "lower", "accuracy beside every sim_cycles_per_s; rtl_err_mean_pct on tablev-rtl"},
		{"engine.rtl_err_max_pct", "%", "lower", "rtl_err_max_pct on tablev-rtl"},
		{"dnn.native.self_ms", "ms", "lower", "host_s on model-rigid first (smallest simulate share)"},
		// Direct timings on the workload's shapes.
		{"mapper.pick_conv.host_us", "us", "lower", "host_s on tablev-rtl, serve-cold; negligible on model-flex"},
		{"mapper.pick_gemm.host_us", "us", "lower", "host_s on tablev-rtl, serve-cold; negligible on model-flex"},
		{"sched.pack.host_us", "us", "lower", "host_s on model-flex (SIGMA part), serve-cold"},
		{"energy.apply.host_us", "us", "lower", "host_s on tablev-rtl, serve-cold; negligible on model-flex"},
		// Kernel, recorder, pool.
		{"sim.kernel.ff_skipped_share", "ratio", "higher", "host_s on gemm-starved; about 0 on model-flex"},
		{"sim.kernel.ff_speedup_x", "x", "higher", "host_s on gemm-starved (base: ticked loop); 1 on model-flex"},
		{"trace.recorder.overhead_pct", "%", "lower", "none with tracing off: must stay about 0 on model-flex (base: untraced)"},
		{"simpool.map.speedup_x", "x", "higher", "req_per_s on serve-cold (base: 1 worker)"},
	}
	// Chip composition, per placement.
	for _, p := range []string{"layer", "batch"} {
		moves := "host_s on chip-4core only"
		out = append(out,
			perLayerDef{"sim.chip." + p + ".makespan_cycles", "cycles", "lower", moves},
			perLayerDef{"sim.chip." + p + ".serial_cycles", "cycles", "lower", moves},
			perLayerDef{"sim.chip." + p + ".overlap_x", "x", "higher", moves},
			perLayerDef{"mem.shared." + p + ".icn_requests", "count", "lower", moves},
			perLayerDef{"mem.shared." + p + ".icn_busy_cycles", "cycles", "lower", moves},
			perLayerDef{"mem.shared." + p + ".icn_wait_cycles", "cycles", "lower", moves},
		)
	}
	// Modelled-component activity, exact, summed over one iteration.
	for _, c := range modelledCounters {
		out = append(out, perLayerDef{c.metric, "count", "lower", "simulated time and rtl_err_*; host time tracks events simulated"})
	}
	// Exact-sum tier attribution: one cause per cycle.
	for _, tier := range []string{"dn", "mn", "rn", "mem"} {
		for _, class := range []string{"busy_share", "stall_input_share", "stall_bandwidth_share"} {
			out = append(out, perLayerDef{"trace." + tier + "." + class, "ratio", "higher", "explains simulated cycles; none on host time"})
		}
	}
	out = append(out,
		// Serving.
		perLayerDef{"serve.clients.speedup_x", "x", "higher", "req_per_s under concurrent clients: requests per second from a client on every P against one client alone (base: one client); what the server's locks, queue and the collector leave of the second core"},
		perLayerDef{"serve.queue_ms_p50", "ms", "lower", "serve.open_loop.latency_p50_ms on serve-cold: the wait for a worker, read from the open-loop requests; 0 in a closed loop, which has a client per worker"},
		perLayerDef{"serve.queue_ms_p90", "ms", "lower", "serve.open_loop.latency_p90_ms on serve-cold (rises before req_per_s stops rising); none on the closed-loop latency_p90_ms"},
		perLayerDef{"serve.sim_ms_p50", "ms", "lower", "latency_p50_ms, req_per_s on serve-cold"},
		perLayerDef{"serve.sim_ms_p90", "ms", "lower", "latency_p90_ms on serve-cold"},
		perLayerDef{"serve.overhead_ms_p50", "ms", "lower", "latency_p50_ms, req_per_s on serve-warm; none on serve-cold"},
		perLayerDef{"serve.open_loop.latency_p50_ms", "ms", "lower", "what a user arriving at 60 req/s per worker waits on serve-cold, from the due time; too noisy on the reference host to gate"},
		perLayerDef{"serve.open_loop.latency_p90_ms", "ms", "lower", "the same, p90: rises before req_per_s stops rising"},
		perLayerDef{"serve.cache.hit_share", "ratio", "higher", "1 on serve-warm, 0 on serve-cold"},
		perLayerDef{"serve.cache.get_ns", "ns", "lower", "latency_p50_ms on serve-warm"},
		perLayerDef{"serve.cache.put_ns", "ns", "lower", "req_per_s on serve-cold"},
		perLayerDef{"serve.disk.hit_share", "ratio", "higher", "1 on serve-disk"},
		perLayerDef{"serve.disk.load_us", "us", "lower", "latency_p50_ms, req_per_s on serve-disk; none on serve-warm"},
		perLayerDef{"serve.disk.save_us", "us", "lower", "req_per_s on serve-cold"},
		perLayerDef{"serve.cold_runs", "count", "lower", "0 on serve-warm and serve-disk"},
		perLayerDef{"serve.coalesced", "count", "lower", "0 everywhere: no workload repeats a job in flight"},
		perLayerDef{"serve.rejected", "count", "lower", "failed operations on serve-cold: 0 while the open loop stays within the server's queue"},
		perLayerDef{"jobkey.hash.host_us", "us", "lower", "latency_p50_ms, req_per_s on serve-warm"},
	)
	// Shares of the traced pass's CPU profile, folded by package.
	for _, l := range profileLayers {
		out = append(out, perLayerDef{l + ".cpu_share", "ratio", "lower", "dn+mn+rn+comp lead on model-flex, tensor+dnn on model-rigid, runtime.*+jobkey+serve on serve-warm"})
	}
	out = append(out,
		// Harness honesty.
		perLayerDef{"bench.trace_overhead_pct", "%", "lower", "none: what the benchmark's own spans cost (base: untraced)"},
		perLayerDef{"bench.gen.late_ms_p99", "ms", "lower", "none: how late the open-loop generator fired"},
		perLayerDef{"bench.gen.late_share", "ratio", "lower", "none: share of open-loop requests fired over 1 ms late"},
		perLayerDef{"bench.samples", "count", "higher", "none: timed operations behind the traced pass's numbers"},
	)
	return out
}

// modelledCounters maps the per-layer count metrics to the activity
// counter (internal/comp/names) each one sums.
var modelledCounters = []struct{ metric, counter string }{
	{"dn.active_cycles", "dn.active_cycles"},
	{"dn.stall_cycles", "dn.stall_cycles"},
	{"mn.active_cycles", "mn.active_cycles"},
	{"mn.mults", "mn.mults"},
	{"mn.fifo.pushes", "mn.fifo.pushes"},
	{"rn.active_cycles", "rn.active_cycles"},
	{"rn.input_stalls", "rn.input_stalls"},
	{"rn.output_stalls", "rn.output_stalls"},
	{"mem.gb.reads", "gb.reads"},
	{"mem.gb.writes", "gb.writes"},
	{"mem.dram.reads", "dram.reads"},
	{"mem.dram.stall_events", "dram.stall_events"},
	{"mem.ctrl.dram_wait_cycles", "ctrl.dram_wait_cycles"},
	{"mem.ctrl.reload_wait_cycles", "ctrl.reload_wait_cycles"},
	{"engine.snapea.saved_macs", "snapea.saved_macs"},
	{"sched.rounds", "sched.rounds"},
}

// profileLayers are the layers a CPU-profile share is reported for.
var profileLayers = []string{
	"comp", "dn", "mn", "rn", "mem", "sim", "engine", "trace", "tensor", "dnn", "mapper", "sched",
	"energy", "stats", "serve", "jobkey", "simpool",
	"runtime.gc", "runtime.malloc", "runtime.encoding_json", "runtime.net_http",
}
