package serve

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/jobkey"
	"repro/internal/mapper"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/stonne"
)

// Request is the POST /jobs body: one simulation job. Either name a preset
// architecture (arch, optionally ms/bw) or supply a complete hardware
// description (hw); conv/tile field names are the paper's uppercase layer
// vocabulary (R, S, C, G, K, N, X, Y, Stride, Padding / TR..TYp).
type Request struct {
	Op   string           `json:"op"`
	Arch string           `json:"arch,omitempty"`
	MS   int              `json:"ms,omitempty"`
	BW   int              `json:"bw,omitempty"`
	HW   *config.Hardware `json:"hw,omitempty"`

	M int `json:"m,omitempty"`
	N int `json:"n,omitempty"`
	K int `json:"k,omitempty"`

	Conv *tensor.ConvShape `json:"conv,omitempty"`
	Tile *mapper.Tile      `json:"tile,omitempty"`

	Sparsity float64 `json:"sparsity,omitempty"`
	Policy   string  `json:"policy,omitempty"`

	Seed  uint64 `json:"seed,omitempty"`
	Batch int    `json:"batch,omitempty"`

	Model string `json:"model,omitempty"`
	// Scale divides the model's spatial dimensions (model op only; 0/1
	// runs the full-size model — expensive for the big Table I networks).
	Scale int         `json:"scale,omitempty"`
	Chip  jobkey.Chip `json:"chip,omitempty"`

	// Progress streams NDJSON progress samples before the final result
	// line. It never affects the result bytes (the kernel's progress hook
	// is display only) and is not part of the cache key.
	Progress bool `json:"progress,omitempty"`
}

// Service-side bounds: a single request may not queue unbounded work or
// ask for an unbounded allocation.
const (
	maxBatch   = 1024
	maxStreams = 256
	maxCores   = 64
	maxBanks   = 1024
	// maxJobBytes bounds a POST /jobs body: about 1000x the largest legal
	// request (a full hardware description plus a conv shape and a tile).
	maxJobBytes = 1 << 20

	// Defaults when the request names a preset without a fabric size: small
	// enough that an interactive curl answers in milliseconds.
	defaultMS = 64
	defaultBW = 16
)

// job is a resolved, validated, content-addressed request. The runners read
// the normalized jk and what resolve derived from it, never the request, so
// what jk's key covers is what the result depends on.
type job struct {
	key      jobkey.Key
	jk       jobkey.Job       // normalized: the one copy of the resolved hardware, arch and op
	op       stonne.CheckedOp // gemm/spmm/conv: the runner shared with the stonne CLI
	model    *stonne.Model    // resolved, scaled model (model op only)
	progress bool
}

// resolve turns a wire request into a runnable job: presets applied, the
// job normalized once, every field it keeps validated, and the content
// address computed from those values (so every spelling of the same job
// lands on the same key). Everything it refuses is refused before the job
// takes an admission slot.
func resolve(req Request) (*job, error) {
	var hw config.Hardware
	var err error
	if req.HW != nil {
		hw = *req.HW
	} else {
		ms, bw := cmp.Or(max(req.MS, 0), defaultMS), cmp.Or(max(req.BW, 0), defaultBW)
		if hw, err = sim.PresetHW(cmp.Or(req.Arch, "maeri"), ms, bw); err != nil {
			return nil, err
		}
	}
	// A preset at an impossible fabric size (config.MaxMSSize bounds it) is
	// as much a bad request as a bad explicit description: reject it here,
	// before it takes a slot.
	if err := hw.Validate(); err != nil {
		return nil, fmt.Errorf("hw: %w", err)
	}
	// The service is the paper's user-interface mode: operands are
	// generated from the seed and start preloaded in the Global Buffer.
	hw.Preloaded = true
	arch, err := sim.Resolve(hw)
	if err != nil {
		return nil, err
	}

	raw := jobkey.Job{
		Arch: arch.Name, Contract: arch.Contract, HW: hw,
		Op: req.Op, M: req.M, N: req.N, K: req.K,
		Sparsity: req.Sparsity, Policy: req.Policy, Tile: req.Tile,
		Seed: req.Seed, Batch: req.Batch,
		Model: req.Model, Scale: req.Scale, Chip: req.Chip,
	}
	if req.Conv != nil {
		raw.Conv = *req.Conv
	}
	j := &job{jk: raw.Normalize(), progress: req.Progress}
	n := &j.jk
	if n.Batch > maxBatch {
		return nil, fmt.Errorf("batch %d exceeds the limit %d", n.Batch, maxBatch)
	}
	switch n.Op {
	case jobkey.OpGEMM, jobkey.OpSpMM, jobkey.OpConv:
		op := stonne.SeededOp{
			Op: n.Op, M: n.M, N: n.N, K: n.K, Tile: n.Tile,
			Sparsity: n.Sparsity, Policy: n.Policy,
		}
		if n.Op == jobkey.OpConv {
			op.Conv = &n.Conv
		}
		if j.op, err = op.Check(); err != nil {
			return nil, err
		}
	case jobkey.OpModel:
		if err := checkModel(j); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown op %q (want gemm, conv, spmm or model)", n.Op)
	}
	if j.key, err = j.jk.Hash(); err != nil {
		return nil, err
	}
	return j, nil
}

// checkModel validates a normalized model job and resolves its scaled model
// into j.model: the policy, and the chip composition the scheduler and the
// shared DRAM will be built from.
func checkModel(j *job) error {
	n := &j.jk
	full, err := stonne.ModelByShort(n.Model)
	if err != nil {
		return err
	}
	if j.model, err = stonne.ScaleSpatial(full, n.Scale); err != nil {
		return err
	}
	if _, err := stonne.ParsePolicy(n.Policy); err != nil {
		return err
	}
	c := n.Chip
	switch {
	case c.Cores > maxCores:
		return fmt.Errorf("cores %d exceeds the limit %d", c.Cores, maxCores)
	case c.Streams > maxStreams:
		return fmt.Errorf("streams %d exceeds the limit %d", c.Streams, maxStreams)
	case c.Banks > maxBanks:
		return fmt.Errorf("banks %d exceeds the limit %d", c.Banks, maxBanks)
	}
	if c.Cores > 1 {
		if _, err := sim.ParsePlacement(c.Placement); err != nil {
			return err
		}
		if _, err := n.HW.DRAMLink(c.LinkGBs); err != nil {
			return fmt.Errorf("chip link_gbs: %w", err)
		}
	}
	return nil
}

// Result is the cached payload of one job: everything deterministic about
// the simulation. Map-valued fields marshal with sorted keys, so two runs
// of the same job produce byte-identical JSON — the property the
// content-addressed cache replays.
type Result struct {
	Key  jobkey.Key `json:"key"`
	Op   string     `json:"op"`
	Arch string     `json:"arch"`

	// Seeds lists the per-run data seeds (gemm/spmm/conv; one per batch
	// element), aligned with Runs.
	Seeds []uint64     `json:"seeds,omitempty"`
	Runs  []*stats.Run `json:"runs,omitempty"`
	// Chip is the aggregated result of a model job (always run through the
	// chip composition; one core is the degenerate chip).
	Chip *stats.ChipRun `json:"chip,omitempty"`

	// OutputSums checksums the functional outputs (one per run or stream):
	// the bit-determinism the cache relies on covers values, not just
	// counters, and the sums prove it cheaply.
	OutputSums []float64 `json:"output_sums,omitempty"`

	TotalCycles uint64 `json:"total_cycles"`
}

// progressFn observes one live progress sample of a running job.
type progressFn func(label string, cycles uint64, outputs int, occupancy float64, skipped uint64)

// execute runs the resolved job to completion; progress, when non-nil,
// receives periodic samples.
func execute(ctx context.Context, j *job, progress progressFn) (*Result, error) {
	res := &Result{Key: j.key, Op: j.jk.Op, Arch: j.jk.Arch}
	var err error
	if j.jk.Op == jobkey.OpModel {
		err = executeModel(ctx, j, res, progress)
	} else {
		err = executeOp(ctx, j, res, progress)
	}
	if err != nil {
		return nil, err
	}
	if res.Chip != nil {
		res.TotalCycles = res.Chip.MakespanCycles
	}
	for _, r := range res.Runs {
		res.TotalCycles += r.Cycles
	}
	return res, nil
}

// executeOp runs a gemm/spmm/conv batch serially, one independent instance
// per seed, through the runner the stonne CLI uses — a service job and a CLI
// run of the same spelling share a result. Batches never fan out inside a
// job, so the server's worker bound is the only parallelism.
func executeOp(ctx context.Context, j *job, res *Result, progress progressFn) error {
	for i := 0; i < j.jk.Batch; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		seed := j.jk.Seed + uint64(i)
		hw := j.jk.HW
		if progress != nil {
			label := fmt.Sprintf("%.8s/run%d", j.key, i)
			hw.Progress = &config.ProgressHook{Report: func(p config.Progress) {
				progress(label, p.Cycles, p.Outputs, p.Occupancy, p.Skipped)
			}}
		}
		inst, err := stonne.CreateInstance(hw)
		if err != nil {
			return err
		}
		out, run, err := inst.RunSeededOp(j.op, seed)
		if err != nil {
			return err
		}
		res.Seeds = append(res.Seeds, seed)
		res.Runs = append(res.Runs, run)
		res.OutputSums = append(res.OutputSums, tensorSum(out))
	}
	return nil
}

// executeModel runs a model job through the chip composition (a 1-core
// chip is byte-identical to the flat model runner) on the job's seeded
// model: weights from seed, stream i's input from seed+1+i, as `stonne
// model` draws them.
func executeModel(ctx context.Context, j *job, res *Result, progress progressFn) error {
	pol, err := stonne.ParsePolicy(j.jk.Policy)
	if err != nil {
		return err
	}
	sm := stonne.SeededModel{Model: j.model, Seed: j.jk.Seed, InputSeed: j.jk.Seed + 1}
	w, err := sm.Weights()
	if err != nil {
		return err
	}
	chip := j.jk.Chip
	copts := stonne.ChipOptions{
		Cores:     chip.Cores,
		Placement: chip.Placement,
		Banks:     chip.Banks,
		LinkGBs:   chip.LinkGBs,
	}
	if progress != nil {
		prefix := string(j.key[:8])
		copts.Progress = func(core, stream, stage int, endCycle uint64) {
			progress(fmt.Sprintf("%s/core%d", prefix, core), endCycle, stream+1, 0, 0)
		}
	}
	outs, cr, err := stonne.RunModelChip(ctx, sm.Model, w, sm.Inputs(chip.Streams), j.jk.HW, copts, &stonne.RunOptions{Policy: pol})
	if err != nil {
		return err
	}
	res.Chip = cr
	for _, o := range outs {
		res.OutputSums = append(res.OutputSums, tensorSum(o))
	}
	return nil
}

// tensorSum is the float64 checksum of a functional output.
func tensorSum(t *stonne.Tensor) float64 {
	if t == nil {
		return 0
	}
	var sum float64
	for _, v := range t.Data() {
		sum += float64(v)
	}
	return sum
}
