package serve

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/jobkey"
	"repro/internal/mapper"
	"repro/internal/sim"
	"repro/internal/simpool"
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

// Service-side bounds: a single request may not queue unbounded work.
const (
	maxBatch   = 1024
	maxStreams = 256
	maxCores   = 64
	// maxJobBytes bounds a POST /jobs body: about 1000x the largest legal
	// request (a full hardware description plus a conv shape and a tile).
	maxJobBytes = 1 << 20

	// Defaults when the request names a preset without a fabric size: small
	// enough that an interactive curl answers in milliseconds.
	defaultMS = 64
	defaultBW = 16
)

// job is a resolved, validated, content-addressed request.
type job struct {
	key   jobkey.Key
	jk    jobkey.Job // also the one copy of the resolved hardware and arch name
	req   Request
	op    stonne.CheckedOp   // gemm/spmm/conv: the runner shared with the stonne CLI
	pol   stonne.SchedPolicy // model op only
	model *stonne.Model      // resolved, scaled model (model op only)
}

// resolve turns a wire request into a runnable job: presets and defaults
// applied, operands validated, and the content address computed from the
// fully resolved values (so every spelling of the same job lands on the
// same key).
func resolve(req Request) (*job, error) {
	j := &job{req: req}
	j.req.Op = strings.ToLower(strings.TrimSpace(req.Op))

	var hw config.Hardware
	if req.HW != nil {
		hw = *req.HW
	} else {
		name := req.Arch
		if name == "" {
			name = "maeri"
		}
		ms, bw := req.MS, req.BW
		if ms <= 0 {
			ms = defaultMS
		}
		if bw <= 0 {
			bw = defaultBW
		}
		var err error
		hw, err = sim.PresetHW(name, ms, bw)
		if err != nil {
			return nil, err
		}
	}
	// A preset at an impossible fabric size is as much a bad request as a
	// bad explicit description: reject it here, before it takes a slot.
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

	if req.Batch < 0 || req.Batch > maxBatch {
		return nil, fmt.Errorf("batch %d out of range [0,%d]", req.Batch, maxBatch)
	}

	switch j.req.Op {
	case jobkey.OpGEMM, jobkey.OpSpMM, jobkey.OpConv:
		j.op, err = stonne.SeededOp{
			Op: j.req.Op, M: req.M, N: req.N, K: req.K,
			Conv: req.Conv, Tile: req.Tile,
			Sparsity: req.Sparsity, Policy: req.Policy,
		}.Check()
		if err != nil {
			return nil, err
		}
	case jobkey.OpModel:
		full, merr := stonne.ModelByShort(req.Model)
		if merr != nil {
			return nil, merr
		}
		scale := req.Scale
		if scale < 1 {
			scale = 1
		}
		if j.model, err = stonne.ScaleSpatial(full, scale); err != nil {
			return nil, err
		}
		if j.pol, err = stonne.ParsePolicy(req.Policy); err != nil {
			return nil, err
		}
		if req.Chip.Cores > maxCores {
			return nil, fmt.Errorf("cores %d exceeds the limit %d", req.Chip.Cores, maxCores)
		}
		if req.Chip.Streams > maxStreams {
			return nil, fmt.Errorf("streams %d exceeds the limit %d", req.Chip.Streams, maxStreams)
		}
	case "":
		return nil, fmt.Errorf("request has no op")
	default:
		return nil, fmt.Errorf("unknown op %q (want gemm, conv, spmm or model)", j.req.Op)
	}

	j.jk = jobkey.Job{
		Arch:     arch.Name,
		Contract: arch.Contract,
		HW:       hw,
		Op:       j.req.Op,
		M:        req.M,
		N:        req.N,
		K:        req.K,
		Sparsity: req.Sparsity,
		Policy:   req.Policy,
		Tile:     req.Tile,
		Seed:     req.Seed,
		Batch:    req.Batch,
		Model:    req.Model,
		Scale:    req.Scale,
		Chip:     req.Chip,
	}
	if req.Conv != nil {
		j.jk.Conv = *req.Conv
	}
	if j.key, err = j.jk.Hash(); err != nil {
		return nil, err
	}
	return j, nil
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

// execute runs the resolved job to completion. batchWorkers bounds the
// simpool fan-out of one batched request; progress, when non-nil, receives
// periodic samples.
func execute(ctx context.Context, j *job, batchWorkers int, progress progressFn) (*Result, error) {
	res := &Result{Key: j.key, Op: j.req.Op, Arch: j.jk.Arch}
	var err error
	if j.req.Op == jobkey.OpModel {
		err = executeModel(ctx, j, res, progress)
	} else {
		err = executeOp(ctx, j, res, batchWorkers, progress)
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

// executeOp fans a gemm/spmm/conv batch out over simpool, one independent
// instance per seed, through the runner the stonne CLI uses — a service job
// and a CLI run of the same spelling share a result.
func executeOp(ctx context.Context, j *job, res *Result, batchWorkers int, progress progressFn) error {
	batch := j.jk.Normalize().Batch
	seeds := make([]uint64, batch)
	for i := range seeds {
		seeds[i] = j.req.Seed + uint64(i)
	}
	type runOut struct {
		run *stats.Run
		sum float64
	}
	outs, err := simpool.Map(ctx, batchWorkers, seeds,
		func(_ context.Context, i int, sd uint64) (runOut, error) {
			hw := j.jk.HW
			if progress != nil {
				label := fmt.Sprintf("%.8s/run%d", j.key, i)
				hw.Progress = &config.ProgressHook{Report: func(p config.Progress) {
					progress(label, p.Cycles, p.Outputs, p.Occupancy, p.Skipped)
				}}
			}
			inst, rerr := stonne.CreateInstance(hw)
			if rerr != nil {
				return runOut{}, rerr
			}
			out, run, rerr := inst.RunSeededOp(j.op, sd)
			if rerr != nil {
				return runOut{}, rerr
			}
			return runOut{run: run, sum: tensorSum(out)}, nil
		})
	if err != nil {
		return err
	}
	res.Seeds = seeds
	for _, o := range outs {
		res.Runs = append(res.Runs, o.run)
		res.OutputSums = append(res.OutputSums, o.sum)
	}
	return nil
}

// executeModel runs a model job through the chip composition (a 1-core
// chip is byte-identical to the flat model runner), with seeded weights
// pruned to the model's Table I sparsity and one seeded input per stream.
func executeModel(ctx context.Context, j *job, res *Result, progress progressFn) error {
	m := j.model
	w := stonne.InitWeights(m, j.req.Seed)
	if err := w.Prune(m.Sparsity); err != nil {
		return err
	}
	chip := j.jk.Normalize().Chip
	inputs := make([]*stonne.Tensor, chip.Streams)
	for i := range inputs {
		inputs[i] = stonne.RandomInput(m, j.req.Seed+1+uint64(i))
	}
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
	outs, cr, err := stonne.RunModelChip(ctx, m, w, inputs, j.jk.HW, copts, &stonne.RunOptions{Policy: j.pol})
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
