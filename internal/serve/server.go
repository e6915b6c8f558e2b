// Package serve is the simulation-as-a-service layer: a long-running HTTP
// server that accepts simulation jobs, fans them out over the simpool
// runtime, and memoizes results in a bounded content-addressed cache.
// Because every simulation here is bit-deterministic (pinned by the parity
// and differential suites), a cache hit replays the stored result bytes —
// byte-identical to re-running the kernel, at zero simulation cost.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/jobkey"
	"repro/internal/sim"
	"repro/internal/simpool"
	"repro/internal/stats"
)

// Config sizes the server.
type Config struct {
	// Workers bounds the jobs simulating concurrently; <= 0 uses
	// simpool's default (GOMAXPROCS).
	Workers int
	// QueueDepth is how many admitted jobs may wait for a worker beyond
	// the ones executing; further submissions get 429. <0 means 0.
	QueueDepth int
	// CacheEntries bounds the result cache; <= 0 uses DefaultCacheEntries.
	CacheEntries int
	// BatchWorkers bounds the simpool fan-out inside one batched job;
	// <= 0 runs each batch serially (1), keeping the worker bound global.
	BatchWorkers int
	// CacheDir, when non-empty, backs the result cache with a persistent
	// disk tier: results survive process restarts (the jobkey content
	// addresses are stable across processes) and memory eviction.
	CacheDir string
	// DiskEntries bounds the disk tier; <= 0 uses DefaultDiskEntries.
	DiskEntries int
}

// flight is one in-progress execution that identical concurrent requests
// coalesce onto: they wait for done and share the marshaled result.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// Server handles simulation jobs over HTTP. Create with New, mount via
// Handler.
type Server struct {
	cfg   Config
	cache *Cache
	admit chan struct{} // admission tokens: executing + queued
	exec  chan struct{} // execution tokens: actively simulating
	board *simpool.Board
	start time.Time

	mu       sync.Mutex
	inflight map[jobkey.Key]*flight // guarded by mu

	warmHits  uint64 // guarded by mu; served from cache
	coalesced uint64 // guarded by mu; joined an identical in-flight job
	coldRuns  uint64 // guarded by mu; executed the simulator
	rejected  uint64 // guarded by mu; 429: queue full
	failed    uint64 // guarded by mu; jobs that errored or were cancelled

	warmLat, coldLat *latencyRing

	// run executes a resolved job; tests substitute it to exercise
	// admission and coalescing without simulating.
	run func(ctx context.Context, j *job, progress progressFn) (*Result, error)
}

// New builds a server. It fails only when a configured cache directory
// cannot be opened.
func New(cfg Config) (*Server, error) {
	workers := simpool.Workers(cfg.Workers, 1<<30)
	queue := cfg.QueueDepth
	if queue < 0 {
		queue = 0
	}
	batchWorkers := cfg.BatchWorkers
	if batchWorkers <= 0 {
		batchWorkers = 1
	}
	s := &Server{
		cfg:      cfg,
		cache:    NewCache(cfg.CacheEntries),
		admit:    make(chan struct{}, workers+queue),
		exec:     make(chan struct{}, workers),
		board:    simpool.NewBoard(),
		start:    time.Now(),
		inflight: make(map[jobkey.Key]*flight),
		warmLat:  newLatencyRing(4096),
		coldLat:  newLatencyRing(4096),
	}
	if cfg.CacheDir != "" {
		disk, err := NewDiskStore(cfg.CacheDir, cfg.DiskEntries)
		if err != nil {
			return nil, err
		}
		s.cache.SetDisk(disk)
	}
	s.run = func(ctx context.Context, j *job, progress progressFn) (*Result, error) {
		return execute(ctx, j, batchWorkers, progress)
	}
	return s, nil
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/archs", s.handleArchs)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/replay", s.handleReplay)
	return mux
}

// Envelope is the POST /jobs response: whether the result came from the
// cache, the job's content address, the server-side cost split, and the
// raw result bytes (replayed verbatim on a hit, so repeated jobs are
// byte-identical).
type Envelope struct {
	Cached bool       `json:"cached"`
	Key    jobkey.Key `json:"key"`
	// QueueMs is time this request spent waiting — for an execution slot,
	// or for the coalesced leader's flight — and SimMs the time actually
	// simulating. Warm hits report 0/0; coalesced followers report their
	// wait with SimMs 0 (they did not simulate). Timing never feeds the
	// cache key and is the only per-response field that varies between
	// byte-identical results.
	QueueMs float64         `json:"queue_ms"`
	SimMs   float64         `json:"sim_ms"`
	Result  json.RawMessage `json:"result"`
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{"POST a job description"})
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBytes))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		writeJSON(w, http.StatusBadRequest, errorBody{"request body has data after the job description"})
		return
	}
	j, err := resolve(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	began := time.Now()

	// Warm path: replay the cached bytes, no admission needed.
	if body, ok := s.cache.Get(j.key); ok {
		s.mu.Lock()
		s.warmHits++
		s.mu.Unlock()
		s.replyWarm(w, j.key, body, began)
		return
	}

	// Admission: bounded queue, shed load beyond it.
	select {
	case s.admit <- struct{}{}:
		defer func() { <-s.admit }()
	default:
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{"queue full"})
		return
	}

	f, body, lead := s.joinOrLead(j.key)
	if body != nil {
		s.replyWarm(w, j.key, body, began)
		return
	}
	if !lead {
		select {
		case <-f.done:
		case <-r.Context().Done():
			return
		}
		if f.err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{f.err.Error()})
			return
		}
		wait := time.Since(began)
		s.warmLat.add(wait)
		writeJSON(w, http.StatusOK, Envelope{
			Cached: true, Key: j.key, QueueMs: durMs(wait), Result: f.body,
		})
		return
	}

	body, queueWait, simTime, err := s.execJob(r.Context(), j, f, w)
	if err != nil {
		if j.req.Progress {
			// Progress lines may already be on the wire: the status is
			// committed, so the error goes out as a final NDJSON line.
			_ = json.NewEncoder(w).Encode(struct {
				Type  string `json:"type"`
				Error string `json:"error"`
			}{"error", err.Error()})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
		return
	}
	s.mu.Lock()
	s.coldRuns++
	s.mu.Unlock()
	s.coldLat.add(time.Since(began))
	env := Envelope{
		Cached: false, Key: j.key,
		QueueMs: durMs(queueWait), SimMs: durMs(simTime), Result: body,
	}
	if j.req.Progress {
		_ = json.NewEncoder(w).Encode(struct {
			Type string `json:"type"`
			Envelope
		}{"result", env})
		return
	}
	writeJSON(w, http.StatusOK, env)
}

// joinOrLead decides, under mu, how a request that missed the cache
// proceeds. Identical jobs racing past the cache share one run: the request
// joins the in-flight leader when there is one (lead false, f set). When
// there is none the leader may have published and left since this request's
// cache probe, so the memory tier is probed once more — the leader's Put
// inserts there before it deletes its flight, and no disk is read under mu —
// and a hit is served warm (body set) without counting a second miss.
// Otherwise the request registers f and leads the run.
func (s *Server) joinOrLead(k jobkey.Key) (f *flight, body []byte, lead bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.inflight[k]; ok {
		s.coalesced++
		return f, nil, false
	}
	if body, ok := s.cache.getMemory(k); ok {
		s.warmHits++
		return nil, body, false
	}
	f = &flight{done: make(chan struct{})}
	s.inflight[k] = f
	return f, nil, true
}

// replyWarm replays cached result bytes.
func (s *Server) replyWarm(w http.ResponseWriter, k jobkey.Key, body []byte, began time.Time) {
	s.warmLat.add(time.Since(began))
	writeJSON(w, http.StatusOK, Envelope{Cached: true, Key: k, Result: body})
}

// execJob runs the job as the leader of flight f: it takes an execution
// slot, simulates, and returns the canonical marshaled result bytes plus the
// cost split (time waiting for the slot vs time simulating). When the
// request asked for progress, samples stream to the response as NDJSON lines
// before the final envelope (written by the caller).
//
// The flight is settled in a defer, so no way out of the run — an error, a
// cancelled wait, a panic — can leave the key in the in-flight table with
// followers parked on a channel nobody will close. A panicking simulation is
// contained here for both job kinds: a model job panics on this goroutine,
// an op batch inside simpool, which hands the panic back as a *PanicError.
// Clients are told the panic value; the stack goes to stderr.
func (s *Server) execJob(ctx context.Context, j *job, f *flight, w http.ResponseWriter) (body []byte, queueWait, simTime time.Duration, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &simpool.PanicError{Value: v, Stack: debug.Stack()}
		}
		var pe *simpool.PanicError
		if errors.As(err, &pe) {
			fmt.Fprintf(os.Stderr, "serve: job %s panicked: %v\n%s", j.key, pe.Value, pe.Stack)
			err = fmt.Errorf("job panicked: %v", pe.Value)
		}
		f.body, f.err = body, err
		// Publish to the cache BEFORE dropping the in-flight entry: a request
		// arriving in between must find one or the other, never a gap where
		// an identical job runs cold a second time.
		if err == nil {
			s.cache.Put(j.key, body)
		}
		s.mu.Lock()
		delete(s.inflight, j.key)
		if err != nil {
			s.failed++
		}
		s.mu.Unlock()
		close(f.done)
	}()
	waitStart := time.Now()
	select {
	case s.exec <- struct{}{}:
		defer func() { <-s.exec }()
	case <-ctx.Done():
		return nil, time.Since(waitStart), 0, ctx.Err()
	}
	queueWait = time.Since(waitStart)
	var progress progressFn
	if j.req.Progress {
		progress = s.streamProgress(w)
	}
	simStart := time.Now()
	res, err := s.run(ctx, j, progress)
	simTime = time.Since(simStart)
	if err != nil {
		return nil, queueWait, simTime, err
	}
	body, err = json.Marshal(res)
	return body, queueWait, simTime, err
}

// durMs converts a duration to float milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// progressLine is one NDJSON progress sample.
type progressLine struct {
	Type      string  `json:"type"`
	Label     string  `json:"label"`
	Cycles    uint64  `json:"cycles"`
	Outputs   int     `json:"outputs"`
	Occupancy float64 `json:"occupancy"`
	Skipped   uint64  `json:"skipped,omitempty"`
}

// streamProgress returns a progressFn that mirrors samples onto the shared
// board (for GET /progress) and streams them to this response, throttled
// to one line per label per 100ms so a fast simulation cannot flood the
// connection.
func (s *Server) streamProgress(w http.ResponseWriter) progressFn {
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	var mu sync.Mutex
	last := make(map[string]time.Time)
	enc := json.NewEncoder(w)
	return func(label string, cycles uint64, outputs int, occupancy float64, skipped uint64) {
		s.board.Update(label, cycles, outputs, occupancy, skipped)
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if now.Sub(last[label]) < 100*time.Millisecond {
			return
		}
		last[label] = now
		_ = enc.Encode(progressLine{
			Type: "progress", Label: label, Cycles: cycles,
			Outputs: outputs, Occupancy: occupancy, Skipped: skipped,
		})
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// Stats is the GET /stats payload. The latency summaries cover successful
// requests only (failed jobs never feed the rings) and use the shared
// nearest-rank percentile definition from internal/stats.
type Stats struct {
	UptimeSeconds float64              `json:"uptime_seconds"`
	Workers       int                  `json:"workers"`
	QueueDepth    int                  `json:"queue_depth"`
	Inflight      int                  `json:"inflight"`
	WarmHits      uint64               `json:"warm_hits"`
	Coalesced     uint64               `json:"coalesced"`
	ColdRuns      uint64               `json:"cold_runs"`
	Rejected      uint64               `json:"rejected"`
	Failed        uint64               `json:"failed"`
	Cache         CacheStats           `json:"cache"`
	WarmLatency   stats.LatencySummary `json:"warm_latency"`
	ColdLatency   stats.LatencySummary `json:"cold_latency"`
}

// Snapshot returns the current service counters.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	st := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       cap(s.exec),
		QueueDepth:    cap(s.admit) - cap(s.exec),
		Inflight:      len(s.inflight),
		WarmHits:      s.warmHits,
		Coalesced:     s.coalesced,
		ColdRuns:      s.coldRuns,
		Rejected:      s.rejected,
		Failed:        s.failed,
	}
	s.mu.Unlock()
	st.Cache = s.cache.Stats()
	st.WarmLatency = s.warmLat.stats()
	st.ColdLatency = s.coldLat.stats()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// archInfo is one /archs entry.
type archInfo struct {
	Name        string `json:"name"`
	Title       string `json:"title"`
	Description string `json:"description"`
}

func (s *Server) handleArchs(w http.ResponseWriter, r *http.Request) {
	var out []archInfo
	for _, a := range sim.List() {
		out = append(out, archInfo{Name: a.Name, Title: a.Title, Description: a.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.board.Snapshot())
}

// latencyRing keeps the most recent size samples for percentile reporting.
// Only successful requests are added; failures are a separate counter so
// they never skew the distribution.
func newLatencyRing(size int) *latencyRing {
	if size < 1 {
		// A zero-capacity ring would divide by zero in add; clamp to the
		// smallest ring that still reports a (degenerate) distribution.
		size = 1
	}
	return &latencyRing{samples: make([]time.Duration, 0, size)}
}

type latencyRing struct {
	mu      sync.Mutex
	samples []time.Duration // guarded by mu
	next    int             // guarded by mu
	count   uint64          // guarded by mu
}

func (l *latencyRing) add(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) < cap(l.samples) {
		l.samples = append(l.samples, d)
	} else {
		l.samples[l.next] = d
	}
	l.next = (l.next + 1) % cap(l.samples)
	l.count++
}

// stats summarizes the retained window with the shared nearest-rank
// helper. Count is every sample ever observed, percentiles cover the
// window (the ring overwrites oldest-first).
func (l *latencyRing) stats() stats.LatencySummary {
	l.mu.Lock()
	window := make([]time.Duration, len(l.samples))
	copy(window, l.samples)
	count := l.count
	l.mu.Unlock()
	sum := stats.SummarizeLatencies(window)
	sum.Count = count
	return sum
}
