package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/jobkey"
	"repro/internal/serve"
)

// queueDepth is how many requests the server lets wait for a worker before
// it answers 429.
const queueDepth = 64

// maxSpansKept bounds the spans a serve run writes out: a warm pass records
// one per request, tens of thousands a second.
const maxSpansKept = 10000

type serveKind int

const (
	kindWarm serveKind = iota // repeat jobs, memory-tier hits
	kindCold                  // every job unique
	kindDisk                  // repeat jobs, disk-tier hits only
)

// serveSizes are the knobs of the three serve workloads.
type serveSizes struct {
	jobs  int     // repeat-set size (warm, disk)
	block int     // requests per closed-loop block (warm, cold)
	rate  float64 // open-loop arrivals per second and worker (cold)
}

// serveWorkload drives an in-process serve.Server through
// serve.InProcClient: the full request path, no sockets.
type serveWorkload struct {
	name  string
	kind  serveKind
	sizes serveSizes
	smoke bool

	clients int // one per P of the pass; also the server's workers
	seed    uint64
	dir     string
	srv     *serve.Server
	client  *http.Client
	jobs    []*serveJob
	issued  int // unique jobs drawn so far (cold)

	mu      sync.Mutex
	reasons []string // guarded by mu; first few failure descriptions
}

// serveWorkloads builds the three serve workloads. The open-loop rate, 60
// requests per second and worker, is a third of the closed-loop capacity of
// one worker on the 2-core reference host: requests do wait for a worker,
// and the queue does not grow.
func serveWorkloads(smoke bool) []*serveWorkload {
	warm, cold, disk := serveSizes{jobs: 64, block: 2048}, serveSizes{block: 48, rate: 60}, serveSizes{jobs: 120}
	if smoke {
		warm, cold, disk = serveSizes{jobs: 8, block: 64}, serveSizes{block: 12, rate: 100}, serveSizes{jobs: 12}
	}
	return []*serveWorkload{
		{name: "serve-warm", kind: kindWarm, sizes: warm, smoke: smoke},
		{name: "serve-cold", kind: kindCold, sizes: cold, smoke: smoke},
		{name: "serve-disk", kind: kindDisk, sizes: disk, smoke: smoke},
	}
}

// procs gives the untraced pass one P and the traced pass every P: the
// gated numbers are the CPU cost of a request, and the traced pass is where
// concurrent requests meet the server's queue, its locks and each other.
func (w *serveWorkload) procs(trace bool) int {
	if trace {
		return runtime.NumCPU()
	}
	return 1
}

func (w *serveWorkload) note(format string, args ...any) {
	w.mu.Lock()
	if len(w.reasons) < 8 {
		w.reasons = append(w.reasons, fmt.Sprintf(format, args...))
	}
	w.mu.Unlock()
}

// failures returns the failure descriptions noted so far.
func (w *serveWorkload) failures() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.reasons...)
}

func (w *serveWorkload) config() serve.Config {
	return serve.Config{Workers: w.clients, QueueDepth: queueDepth, CacheDir: w.dir}
}

// judgeFirst accepts the first answer to a unique job — 200, simulated not
// cached, inside the deadline — and keeps its result as the job's
// reference.
func (w *serveWorkload) judgeFirst(j *serveJob, a answer, err error) bool {
	switch {
	case err != nil:
		w.note("%s %s: %v", j.req.Op, j.req.Arch, err)
	case a.status != http.StatusOK:
		w.note("%s %s: status %d", j.req.Op, j.req.Arch, a.status)
	case a.env.Cached:
		w.note("%s %s: a unique job was served from the cache", j.req.Op, j.req.Arch)
	case a.latency > requestDeadline:
		w.note("%s %s: %v is past the %v deadline", j.req.Op, j.req.Arch, a.latency, requestDeadline)
	default:
		var v struct {
			TotalCycles uint64 `json:"total_cycles"`
		}
		if err := json.Unmarshal(a.env.Result, &v); err != nil {
			w.note("%s %s: malformed result: %v", j.req.Op, j.req.Arch, err)
			return false
		}
		j.key, j.ref, j.cycles = a.env.Key, a.env.Result, v.TotalCycles
		return true
	}
	return false
}

// judgeRepeat accepts an answer to a job the server has seen: 200, served
// from the cache, byte-identical to the first result, inside the deadline.
func (w *serveWorkload) judgeRepeat(j *serveJob, a answer, err error) bool {
	switch {
	case err != nil:
		w.note("repeat %.12s: %v", j.key, err)
	case a.status != http.StatusOK:
		w.note("repeat %.12s: status %d", j.key, a.status)
	case !a.env.Cached:
		w.note("repeat %.12s: simulated again instead of served from the cache", j.key)
	case !bytes.Equal(a.env.Result, j.ref):
		w.note("repeat %.12s: body differs from the first result", j.key)
	case a.latency > requestDeadline:
		w.note("repeat %.12s: %v is past the %v deadline", j.key, a.latency, requestDeadline)
	default:
		return true
	}
	return false
}

// drawCold returns the next n jobs of the unique stream.
func (w *serveWorkload) drawCold(n int) ([]*serveJob, error) {
	jobs := make([]*serveJob, n)
	for i := range jobs {
		j, err := coldJob(w.seed, w.issued)
		if err != nil {
			return nil, err
		}
		w.issued++
		jobs[i] = j
	}
	return jobs, nil
}

func allOK(samples []sample) bool {
	for _, s := range samples {
		if !s.ok {
			return false
		}
	}
	return true
}

func (w *serveWorkload) setUp(seed uint64) error {
	// Every set-up starts the unique stream over, on a fresh server and
	// directory, so what a run measures does not depend on how many times
	// it set up.
	w.seed, w.issued, w.clients = seed, 0, runtime.GOMAXPROCS(0)
	if w.kind != kindWarm {
		if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(scratchRoot, w.name+"-*")
		if err != nil {
			return err
		}
		w.dir = dir
	}
	srv, err := serve.New(w.config())
	if err != nil {
		return err
	}
	w.srv, w.client = srv, serve.InProcClient(srv.Handler())

	// Pre-warm the repeat set, or fill the disk tier, through the server:
	// each first answer becomes the job's reference.
	switch w.kind {
	case kindWarm:
		w.jobs, err = warmJobs(seed, w.sizes.jobs)
	case kindDisk:
		w.jobs, err = w.drawCold(w.sizes.jobs)
	}
	if err != nil {
		return err
	}
	first := closedLoop(w.client, w.clients, len(w.jobs), time.Now(), func(i int) *serveJob { return w.jobs[i] }, w.judgeFirst)
	if !allOK(first) {
		return fmt.Errorf("pre-warm failed: %v", w.failures())
	}
	// One untimed warm-up iteration.
	_, err = w.block(w.clients, time.Now(), nil)
	return err
}

func (w *serveWorkload) tearDown() {
	if w.dir != "" {
		os.RemoveAll(w.dir) // scratch data; nothing to do if it is already gone
		w.dir = ""
	}
}

// blockResult is one closed-loop iteration.
type blockResult struct {
	jobs     []*serveJob // the job list the samples index into
	samples  []sample
	wall     time.Duration
	allocMB  float64
	cycles   uint64
	snapshot serve.Stats // the serving server's counters after the block (disk: that iteration's server)
}

// block runs one closed-loop iteration: a block of repeat requests (warm),
// a block of fresh unique jobs (cold), or a fresh server over the filled
// directory asked for every key once (disk), from the given number of
// clients. rec, when set, records a span per request.
func (w *serveWorkload) block(clients int, origin time.Time, rec *spanRecorder) (*blockResult, error) {
	var (
		jobs   = w.jobs
		n      = w.sizes.block
		judge  = w.judgeRepeat
		client = w.client
		srv    = w.srv
	)
	if w.kind == kindCold {
		fresh, err := w.drawCold(n)
		if err != nil {
			return nil, err
		}
		jobs, judge = fresh, w.judgeFirst
	}
	a0, t0 := totalAllocMB(), time.Now()
	if w.kind == kindDisk {
		cfg := w.config()
		cfg.CacheEntries = 1 // every request misses memory and loads from disk
		var err error
		if srv, err = serve.New(cfg); err != nil {
			return nil, err
		}
		client, n = serve.InProcClient(srv.Handler()), len(jobs)
	}
	loop := closedLoop
	if rec != nil {
		loop = rec.closedLoop
	}
	res := &blockResult{jobs: jobs}
	res.samples = loop(client, clients, n, origin, func(i int) *serveJob { return jobs[i%len(jobs)] }, judge)
	res.wall, res.allocMB = time.Since(t0), totalAllocMB()-a0
	for _, s := range res.samples {
		res.cycles += jobs[s.job%len(jobs)].cycles
	}
	res.snapshot = srv.Snapshot()
	return res, nil
}

// blockAcc accumulates closed-loop iterations.
type blockAcc struct {
	its              []iteration
	requests, failed int
	latency          []timed
}

func (b *blockAcc) add(r *blockResult) {
	n := len(r.samples)
	b.its = append(b.its, iteration{wall: r.wall, ops: n, cycles: r.cycles, allocMB: r.allocMB * 1000 / float64(n)})
	b.requests += n
	for _, s := range r.samples {
		if !s.ok {
			b.failed++
		}
	}
	b.latency = append(b.latency, timedOf(r.samples)...)
}

// timedOf extracts the completion time and latency of each sample.
func timedOf(samples []sample) []timed {
	out := make([]timed, len(samples))
	for i, s := range samples {
		out[i] = timed{done: s.done, latency: s.latency}
	}
	return out
}

// bestRate returns the requests per second of the quietest block.
func (b *blockAcc) bestRate() float64 {
	best := 0.0
	for _, it := range b.its {
		best = max(best, ratio(float64(it.ops), it.wall.Seconds()))
	}
	return best
}

// resultDigest hashes the result bodies of jobs in order.
func resultDigest(jobs []*serveJob) string {
	h := sha256.New()
	for _, j := range jobs {
		h.Write(j.ref)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifySome recomputes every step-th job on the CPU reference.
func verifySome(jobs []*serveJob, step int, o *outcome) {
	for i := 0; i < len(jobs); i += step {
		if jobs[i].ref == nil {
			continue // the request itself already failed
		}
		if err := verifyResult(jobs[i], jobs[i].ref); err != nil {
			o.fail("%v", err)
		}
	}
}

// openLoopUsers is how many requests of the open loop may be in flight: as
// many as the server's queue holds, so a request that finds the workers busy
// waits in the server, where the envelope's queue_ms counts it, and never in
// the generator. With fewer users than that the server's queue never forms.
const openLoopUsers = queueDepth

// openPhase is the open-loop phase of serve-cold: Poisson arrivals of
// unique jobs at the workload's rate for the span, latency from due time.
type openPhase struct {
	jobs    []*serveJob
	samples []sample  // latency counts from the due time
	late    []float64 // ms the generator handed each request over after its due time
	failed  int
}

// percentiles returns the phase's p50 and p90 latency from the due time, in
// milliseconds, over all its requests.
func (p *openPhase) percentiles() (p50, p90 float64) {
	all := make([]float64, len(p.samples))
	for i, s := range p.samples {
		all[i] = ms(s.latency)
	}
	return percentile(all, 0.50), percentile(all, 0.90)
}

func (w *serveWorkload) openPhase(span time.Duration) (*openPhase, error) {
	schedule := poissonSchedule(w.seed+uint64(w.issued), w.sizes.rate*float64(w.clients), span)
	jobs, err := w.drawCold(len(schedule))
	if err != nil {
		return nil, err
	}
	p := &openPhase{jobs: jobs, samples: make([]sample, len(jobs))}
	origin := time.Now()
	sent, done := openLoop(schedule, openLoopUsers, origin, func(i int) {
		a, err := post(w.client, jobs[i].body)
		p.samples[i] = sample{job: i, queueMs: a.env.QueueMs, simMs: a.env.SimMs, ok: w.judgeFirst(jobs[i], a, err)}
	})
	for i := range jobs {
		lat := done[i] - schedule[i]
		p.samples[i].done, p.samples[i].latency = done[i], lat
		if lat > requestDeadline && p.samples[i].ok {
			p.samples[i].ok = false
			w.note("open loop: %v from the due time is past the %v deadline", lat, requestDeadline)
		}
		if !p.samples[i].ok {
			p.failed++
		}
		p.late = append(p.late, ms(sent[i]-schedule[i]))
	}
	return p, nil
}

func (w *serveWorkload) measure(d time.Duration, o *outcome) error {
	defer func() { o.failures = append(o.failures, w.failures()...) }()
	if faultInjected == faultBody && len(w.jobs) > 0 {
		w.jobs[0].ref = append(append([]byte(nil), w.jobs[0].ref...), ' ')
	}
	// serve-cold spends the first half of the run in the open loop and the
	// rest in the closed loop. The gated latencies are the closed loop's:
	// from the due time at a third of capacity a latency is service time
	// plus waiting, the waiting multiplies every disturbance of the host,
	// and over ten runs the open-loop median spread 12% and the p90 24%
	// whatever the statistic. They are reported beside the gated ones.
	closedFor := d
	var open *openPhase
	if w.kind == kindCold {
		var err error
		if open, err = w.openPhase(d / 2); err != nil {
			return err
		}
		o.attempted += len(open.jobs)
		o.failed += open.failed
		closedFor = d / 2
	}
	var acc blockAcc
	var coldJobs []*serveJob
	origin := time.Now()
	for it := 0; it < minIterations(w.smoke) || time.Since(origin) < closedFor; it++ {
		r, err := w.block(w.clients, origin, nil)
		if err != nil {
			return err
		}
		acc.add(r)
		if w.kind == kindCold {
			coldJobs = append(coldJobs, r.jobs...)
		}
	}
	o.attempted += acc.requests
	o.failed += acc.failed

	switch w.kind {
	case kindWarm:
		verifySome(w.jobs, 1, o)
		o.extra["result_digest"] = resultDigest(w.jobs)
	case kindDisk:
		verifySome(w.jobs, 8, o)
		o.extra["result_digest"] = resultDigest(w.jobs)
	case kindCold:
		verifySome(open.jobs, 16, o)
		verifySome(coldJobs, 16, o)
		o.extra["result_digest"] = resultDigest(open.jobs)
		o.extra["open_loop_requests"] = len(open.jobs)
		o.extra["open_loop_latency_p50_ms"], o.extra["open_loop_latency_p90_ms"] = open.percentiles()
	}
	reportIterations(o, acc.its)
	reportLatencies(o, acc.latency)
	if w.kind != kindCold {
		o.extra["latency_p99_ms"] = median(windowPercentiles(acc.latency, 0.99))
	}
	return nil
}

func (w *serveWorkload) traced(d time.Duration, o *outcome) error {
	defer func() { o.failures = append(o.failures, w.failures()...) }()
	rec := newSpanRecorder()
	stopProfile, err := startCPUProfile()
	if err != nil {
		return err
	}
	defer stopProfile()
	set := func(name string, v float64) { o.metrics[name] = v }

	before := w.srv.Snapshot()
	var all, arrivals []sample
	if w.kind == kindCold {
		open, err := w.openPhase(d / 4)
		if err != nil {
			return err
		}
		arrivals = open.samples
		o.attempted += len(open.jobs)
		o.failed += open.failed
		late := 0
		for _, l := range open.late {
			if l > 1 {
				late++
			}
		}
		p50, p90 := open.percentiles()
		set("serve.open_loop.latency_p50_ms", p50)
		set("serve.open_loop.latency_p90_ms", p90)
		set("bench.gen.late_ms_p99", percentile(open.late, 0.99))
		set("bench.gen.late_share", ratio(float64(late), float64(len(open.late))))
	}

	// Blocks from one client alone, from every client, and from every
	// client with a span per request, interleaved so drift hits all three.
	var alone, plain, spanned blockAcc
	var snap []serve.Stats
	var served []*serveJob
	origin := time.Now()
	for it := 0; it < minIterations(w.smoke) || time.Since(origin) < d/2; it++ {
		for _, k := range []struct {
			clients int
			rec     *spanRecorder
			acc     *blockAcc
		}{{1, nil, &alone}, {w.clients, nil, &plain}, {w.clients, rec, &spanned}} {
			b, err := w.block(k.clients, origin, k.rec)
			if err != nil {
				return err
			}
			k.acc.add(b)
			if k.rec != nil {
				all = append(all, b.samples...)
				snap = append(snap, b.snapshot)
				served = append(served, b.jobs...)
			}
		}
	}
	profile := stopProfile()
	o.attempted += alone.requests + plain.requests + spanned.requests
	o.failed += alone.failed + plain.failed + spanned.failed

	// A closed loop has a client per worker, so nothing queues; where there
	// is an open loop the wait for a worker is read from its requests.
	var queue, simT, overhead []float64
	for _, s := range all {
		simT = append(simT, s.simMs)
		overhead = append(overhead, ms(s.latency)-s.queueMs-s.simMs)
		if arrivals == nil {
			queue = append(queue, s.queueMs)
		}
	}
	for _, s := range arrivals {
		queue = append(queue, s.queueMs)
	}
	set("serve.queue_ms_p50", percentile(queue, 0.50))
	set("serve.queue_ms_p90", percentile(queue, 0.90))
	set("serve.sim_ms_p50", percentile(simT, 0.50))
	set("serve.sim_ms_p90", percentile(simT, 0.90))
	set("serve.overhead_ms_p50", percentile(overhead, 0.50))
	set("serve.clients.speedup_x", ratio(plain.bestRate(), alone.bestRate()))
	set("bench.trace_overhead_pct", 100*(ratio(plain.bestRate(), spanned.bestRate())-1))
	set("bench.samples", float64(len(all)))

	// Every disk iteration had a server of its own, so their counters add
	// up; a warm or cold server lives through the whole pass, so its last
	// snapshot less the one taken before the pass covers exactly the pass.
	if w.kind != kindDisk {
		snap = snap[len(snap)-1:]
	}
	var hits, misses, diskHits, cold, coalesced, rejected uint64
	for _, st := range snap {
		hits, misses = hits+st.Cache.Hits, misses+st.Cache.Misses
		if st.Cache.Disk != nil {
			diskHits += st.Cache.Disk.Hits
		}
		cold, coalesced, rejected = cold+st.ColdRuns, coalesced+st.Coalesced, rejected+st.Rejected
	}
	if w.kind != kindDisk {
		hits, misses = hits-before.Cache.Hits, misses-before.Cache.Misses
		cold, coalesced, rejected = cold-before.ColdRuns, coalesced-before.Coalesced, rejected-before.Rejected
	}
	set("serve.cache.hit_share", ratio(float64(hits), float64(hits+misses)))
	set("serve.disk.hit_share", ratio(float64(diskHits), float64(misses)))
	set("serve.cold_runs", float64(cold))
	set("serve.coalesced", float64(coalesced))
	set("serve.rejected", float64(rejected))

	jobs := w.jobs
	if w.kind == kindCold {
		jobs = served[:min(len(served), 64)] // a sample of this pass's unique jobs, references kept by the judge
	}
	if err := w.directTimings(jobs, set); err != nil {
		return err
	}
	if err := accuracyAndPool(w.kind == kindCold, w.smoke, set); err != nil {
		o.fail("table V: %v", err)
	}
	o.spans = rec.snapshot()
	if len(o.spans) > maxSpansKept {
		o.extra["spans_recorded"] = len(o.spans)
		o.spans = o.spans[:maxSpansKept]
	}
	return foldCPUProfile(profile, o, set)
}

// directTimings times the cache, the disk store and the job key on the
// workload's own bodies, and on serve-cold the layers under the simulator
// on the job mix's shapes.
func (w *serveWorkload) directTimings(jobs []*serveJob, set func(string, float64)) error {
	if len(jobs) == 0 {
		return nil
	}
	n := float64(len(jobs))

	const rounds = 20
	var put time.Duration
	var cache *serve.Cache
	for r := 0; r < rounds; r++ {
		cache = serve.NewCache(len(jobs))
		t0 := time.Now()
		for _, j := range jobs {
			cache.Put(j.key, j.ref)
		}
		put += time.Since(t0)
	}
	set("serve.cache.put_ns", float64(put.Nanoseconds())/(rounds*n))
	get := timeCalls(func() {
		for _, j := range jobs {
			cache.Get(j.key)
		}
	})
	set("serve.cache.get_ns", float64(get.Nanoseconds())/n)

	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchRoot, "disk-direct-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := serve.NewDiskStore(dir, 0)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, j := range jobs {
		store.Save(j.key, j.ref)
	}
	set("serve.disk.save_us", us(time.Since(t0))/n)
	load := timeCalls(func() {
		for _, j := range jobs {
			store.Load(j.key)
		}
	})
	set("serve.disk.load_us", us(load)/n)

	keys := make([]jobkey.Job, len(jobs))
	for i, j := range jobs {
		if keys[i], err = keyMaterial(j.req); err != nil {
			return err
		}
	}
	hash := timeCalls(func() {
		for i := range keys {
			_, _ = keys[i].Hash() // only the time matters here
		}
	})
	set("jobkey.hash.host_us", us(hash)/n)

	if w.kind != kindCold {
		return nil
	}
	var in directInputs
	for _, j := range jobs {
		hw, err := jobHardware(j.req)
		if err != nil {
			return err
		}
		in.hardware = append(in.hardware, hw)
		switch j.req.Op {
		case "conv":
			in.convs = append(in.convs, opShape{conv: true, cs: *j.req.Conv, hw: hw})
		default:
			in.gemms = append(in.gemms, opShape{m: j.req.M, n: j.req.N, k: j.req.K, hw: hw})
		}
		if j.req.Op == "spmm" {
			a, _ := operands(j.req)
			in.nnz, in.capacity = append(in.nnz, rowNonZeros(a.Data(), a.Dim(0))), hw.MSSize
		}
		var res resultView
		if err := json.Unmarshal(j.ref, &res); err != nil {
			return err
		}
		for _, r := range res.Runs {
			in.runs, in.runHW = append(in.runs, r), append(in.runHW, hw)
		}
	}
	in.time(set)
	// An iteration of this workload is one job: one constructor call.
	set("engine.new.host_ms", ms(timeEngineNew(in.hardware)))
	set("engine.new.calls", 1)
	return nil
}

// closedLoop is the package-level closedLoop with a span around every
// request and, under it, the queue and simulate phases the server reports
// in the envelope.
func (r *spanRecorder) closedLoop(client *http.Client, clients, n int, origin time.Time, job func(i int) *serveJob, judge func(j *serveJob, a answer, err error) bool) []sample {
	return closedLoop(client, clients, n, origin, job, func(j *serveJob, a answer, err error) bool {
		end := time.Since(r.origin)
		start := end - a.latency
		id := r.add("serve.request", start, end, -1, 0)
		queue := time.Duration(a.env.QueueMs * float64(time.Millisecond))
		simulate := time.Duration(a.env.SimMs * float64(time.Millisecond))
		if queue > 0 {
			r.add("serve.queue", start, start+queue, id, 0)
		}
		if simulate > 0 {
			r.add("serve.simulate", start+queue, start+queue+simulate, id, 0)
		}
		return judge(j, a, err)
	})
}
