package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/jobkey"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// serveJob is one request the generator can send: the wire body, and once
// the server has answered it, the result bytes and cycles it must keep
// answering with.
type serveJob struct {
	req    serve.Request
	body   []byte
	key    jobkey.Key
	ref    []byte // expected result bytes (warm and disk workloads)
	cycles uint64
}

func newServeJob(req serve.Request) (*serveJob, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &serveJob{req: req, body: body}, nil
}

var serveArchs = []string{"maeri", "tpu", "sigma", "snapea"}

// warmJobs are the repeat jobs of serve-warm: small GEMMs on the four
// architectures, 64 MS / bandwidth 16, distinct by seed.
func warmJobs(seed uint64, n int) ([]*serveJob, error) {
	jobs := make([]*serveJob, n)
	for i := range jobs {
		j, err := newServeJob(serve.Request{
			Op: "gemm", Arch: serveArchs[i%len(serveArchs)], MS: 64, BW: 16,
			M: 32, N: 32, K: 48, Seed: seed*1_000_003 + uint64(i),
		})
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	return jobs, nil
}

// coldShapes is the job mix of serve-cold and the fill of serve-disk: GEMMs
// on the four architectures, a SIGMA SpMM at 0.8 sparsity under LFF and a
// MAERI 3×3 convolution, two shapes of each. The shapes are sized so that
// every job costs a few milliseconds of simulation on the reference host:
// with one size for all, a MAERI GEMM costs sixty times a SNAPEA one, the
// service-time distribution has modes an order of magnitude apart, and the
// median latency jumps between them from run to run.
var coldShapes = []serve.Request{
	{Op: "gemm", Arch: "maeri", M: 32, N: 32, K: 32},
	{Op: "gemm", Arch: "tpu", M: 80, N: 80, K: 80},
	{Op: "gemm", Arch: "sigma", M: 32, N: 32, K: 32},
	{Op: "gemm", Arch: "snapea", M: 96, N: 96, K: 96},
	{Op: "spmm", Arch: "sigma", M: 48, N: 48, K: 48, Sparsity: 0.8, Policy: "LFF"},
	{Op: "conv", Arch: "maeri", Conv: &tensor.ConvShape{R: 3, S: 3, C: 4, G: 1, K: 8, N: 1, X: 8, Y: 8, Stride: 1, Padding: 1}},
	{Op: "gemm", Arch: "maeri", M: 16, N: 64, K: 32},
	{Op: "gemm", Arch: "tpu", M: 64, N: 96, K: 80},
	{Op: "gemm", Arch: "sigma", M: 64, N: 16, K: 32},
	{Op: "gemm", Arch: "snapea", M: 96, N: 128, K: 72},
	{Op: "spmm", Arch: "sigma", M: 64, N: 32, K: 54, Sparsity: 0.8, Policy: "LFF"},
	{Op: "conv", Arch: "maeri", Conv: &tensor.ConvShape{R: 3, S: 3, C: 4, G: 1, K: 4, N: 1, X: 12, Y: 12, Stride: 1, Padding: 1}},
}

// coldJob is job i of the unique-job stream of a seed: the shapes in
// rotation, so any run of len(coldShapes) consecutive jobs does the same
// work whatever the seed, and a request seed distinct for every i, so no
// two jobs share operands or a cache key.
func coldJob(seed uint64, i int) (*serveJob, error) {
	req := coldShapes[i%len(coldShapes)]
	req.MS, req.BW, req.Seed = 64, 16, seed*1_000_003+uint64(i)
	return newServeJob(req)
}

// answer is what the client saw for one request.
type answer struct {
	status  int
	env     serve.Envelope
	latency time.Duration
}

// post sends one job to the in-process server and decodes the envelope.
func post(client *http.Client, body []byte) (answer, error) {
	req, err := http.NewRequest(http.MethodPost, "http://bench/jobs", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return answer{latency: time.Since(t0)}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a := answer{status: resp.StatusCode, latency: time.Since(t0)}
	if err != nil {
		return a, err
	}
	if a.status == http.StatusOK {
		if err := json.Unmarshal(raw, &a.env); err != nil {
			return a, fmt.Errorf("malformed envelope: %w", err)
		}
	}
	return a, nil
}

// requestDeadline is the latency beyond which a request counts as failed.
const requestDeadline = 2 * time.Second

// resultView is the part of a result body the benchmark reads.
type resultView struct {
	Key         jobkey.Key   `json:"key"`
	Runs        []*stats.Run `json:"runs"`
	OutputSums  []float64    `json:"output_sums"`
	TotalCycles uint64       `json:"total_cycles"`
}

// operands derives a job's tensors from its seed the way the service does
// (internal/serve/job.go runOne, itself the stonne CLI's derivation): one
// splitmix64 stream fills the stationary operand, then the streaming one;
// SpMM prunes the first with a fixed stream; convolution inputs are
// rectified.
func operands(req serve.Request) (a, b *tensor.Tensor) {
	rng := dnn.NewRNG(req.Seed)
	fill := func(t *tensor.Tensor, relu bool) *tensor.Tensor {
		d := t.Data()
		for i := range d {
			v := rng.Normal()
			if relu && v < 0 {
				v = 0
			}
			d[i] = float32(v)
		}
		return t
	}
	if req.Op == "conv" {
		cs := *req.Conv
		w := fill(tensor.New(cs.K, cs.C/cs.G, cs.R, cs.S), false)
		return w, fill(tensor.New(cs.N, cs.C, cs.X, cs.Y), true)
	}
	a = fill(tensor.New(req.M, req.K), false)
	if req.Op == "spmm" {
		prune := dnn.NewRNG(0x9981)
		for i, d := 0, a.Data(); i < len(d); i++ {
			if prune.Float64() < req.Sparsity {
				d[i] = 0
			}
		}
	}
	return a, fill(tensor.New(req.K, req.N), false)
}

// verifyResult recomputes a job on the CPU reference and compares the
// checksum of the functional output the service reported.
func verifyResult(j *serveJob, body []byte) error {
	var res resultView
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("malformed result: %w", err)
	}
	if res.Key != j.key {
		return fmt.Errorf("result carries key %.12s, envelope %.12s", res.Key, j.key)
	}
	if len(res.OutputSums) != 1 || len(res.Runs) != 1 {
		return fmt.Errorf("want one run and one output sum, have %d and %d", len(res.Runs), len(res.OutputSums))
	}
	a, b := operands(j.req)
	var want *tensor.Tensor
	var err error
	if j.req.Op == "conv" {
		want, err = tensor.Conv2D(b, a, *j.req.Conv)
	} else {
		want, err = tensor.MatMul(a, b)
	}
	if err != nil {
		return err
	}
	var sum, scale float64
	for _, v := range want.Data() {
		sum += float64(v)
		scale += math.Abs(float64(v))
	}
	if diff := math.Abs(res.OutputSums[0] - sum); diff > 1e-4*scale+1e-6 || math.IsNaN(diff) {
		return fmt.Errorf("%s on %s: output sum %.6g, CPU reference %.6g", j.req.Op, j.req.Arch, res.OutputSums[0], sum)
	}
	return nil
}

// jobHardware resolves the hardware a request simulates on the way the
// service does.
func jobHardware(req serve.Request) (config.Hardware, error) {
	hw, err := sim.PresetHW(req.Arch, req.MS, req.BW)
	hw.Preloaded = true
	return hw, err
}

// keyMaterial builds the content-address input of a request, as the
// service's resolve step does, for the direct timing of jobkey.Hash.
func keyMaterial(req serve.Request) (jobkey.Job, error) {
	hw, err := jobHardware(req)
	if err != nil {
		return jobkey.Job{}, err
	}
	arch, err := sim.Resolve(hw)
	if err != nil {
		return jobkey.Job{}, err
	}
	jk := jobkey.Job{
		Arch: arch.Name,
		Contract: jobkey.Contract{
			ExactSum: arch.Contract.ExactSum, RelTol: arch.Contract.RelTol,
			PostActivationConv: arch.Contract.PostActivationConv,
		},
		HW: hw, Op: req.Op, M: req.M, N: req.N, K: req.K,
		Sparsity: req.Sparsity, Policy: req.Policy, Seed: req.Seed,
	}
	if req.Conv != nil {
		jk.Conv = *req.Conv
	}
	return jk, nil
}

// sample is one request of a measured phase.
type sample struct {
	job     int           // index into the phase's job list
	done    time.Duration // completion, from the phase start
	latency time.Duration
	queueMs float64
	simMs   float64
	ok      bool
}

// closedLoop sends jobs 0..n-1 from `clients` goroutines, each sending its
// next request only after the previous one completed. judge decides whether
// an answer is correct. Samples come back in job order.
func closedLoop(client *http.Client, clients, n int, origin time.Time, job func(i int) *serveJob, judge func(j *serveJob, a answer, err error) bool) []sample {
	out := make([]sample, n)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				j := job(i)
				a, err := post(client, j.body)
				out[i] = sample{
					job: i, done: time.Since(origin), latency: a.latency,
					queueMs: a.env.QueueMs, simMs: a.env.SimMs, ok: judge(j, a, err),
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// openLoop fires do(i) at origin+schedule[i] whatever the backlog: one
// generator sleeps to each due time and hands the index to a pool of
// `clients` goroutines through a queue it never blocks on. It returns when
// each request was handed over and when it completed, both from origin; a
// request's latency counts from its due time, so the wait a stall imposes
// on the requests behind it is measured, and sent-due is how late the
// generator itself ran.
func openLoop(schedule []time.Duration, clients int, origin time.Time, do func(i int)) (sent, done []time.Duration) {
	sent = make([]time.Duration, len(schedule))
	done = make([]time.Duration, len(schedule))
	queue := make(chan int, len(schedule)) // sized to the number of sends: the generator never waits for a client
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				do(i)
				done[i] = time.Since(origin)
			}
		}()
	}
	for i, due := range schedule {
		if wait := due - time.Since(origin); wait > 0 {
			time.Sleep(wait)
		}
		sent[i] = time.Since(origin)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return sent, done
}

// minArrivals is the fewest requests an open-loop phase sends, however
// short its span.
const minArrivals = 8

// poissonSchedule draws arrival times at the given rate over the span (and
// on until there are minArrivals of them) from a seeded stream.
func poissonSchedule(seed uint64, rate float64, span time.Duration) []time.Duration {
	rng := dnn.NewRNG(seed ^ 0xa77174a1)
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= span && len(out) >= minArrivals {
			return out
		}
		out = append(out, at)
	}
}
