package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	_ "repro/internal/engine" // register the architectures
	"repro/internal/jobkey"
	"repro/internal/sim"
	"repro/stonne"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

const gemmBody = `{"op":"gemm","arch":"maeri","ms":16,"bw":16,"m":8,"n":8,"k":16,"seed":1}`

// TestRepeatJobIsByteIdenticalCacheHit is the acceptance criterion: the
// second submission of an identical job comes back cached, byte-identical,
// and without re-running the kernel (the cold counter stays put).
func TestRepeatJobIsByteIdenticalCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 2})

	resp1, raw1 := postJob(t, ts, gemmBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold run: status %d: %s", resp1.StatusCode, raw1)
	}
	var env1, env2 Envelope
	if err := json.Unmarshal(raw1, &env1); err != nil {
		t.Fatal(err)
	}
	if env1.Cached {
		t.Error("first submission claims to be cached")
	}

	// A different spelling of the same job (explicit batch=1, spaced op)
	// must land on the same key and hit.
	resp2, raw2 := postJob(t, ts,
		`{"op":" GEMM ","arch":"maeri","ms":16,"bw":16,"m":8,"n":8,"k":16,"seed":1,"batch":1}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm run: status %d: %s", resp2.StatusCode, raw2)
	}
	if err := json.Unmarshal(raw2, &env2); err != nil {
		t.Fatal(err)
	}
	if !env2.Cached {
		t.Error("identical job was not served from the cache")
	}
	if env2.Key != env1.Key {
		t.Errorf("keys differ across spellings: %s vs %s", env1.Key, env2.Key)
	}
	if !bytes.Equal(env1.Result, env2.Result) {
		t.Error("cached result is not byte-identical to the cold run")
	}

	st := s.Snapshot()
	if st.ColdRuns != 1 || st.WarmHits != 1 {
		t.Errorf("counters: cold=%d warm=%d, want 1/1", st.ColdRuns, st.WarmHits)
	}

	// A semantically different job (changed K) must miss.
	_, raw3 := postJob(t, ts, `{"op":"gemm","arch":"maeri","ms":16,"bw":16,"m":8,"n":8,"k":17,"seed":1}`)
	var env3 Envelope
	if err := json.Unmarshal(raw3, &env3); err != nil {
		t.Fatal(err)
	}
	if env3.Cached || env3.Key == env1.Key {
		t.Error("different shape reused the cached result")
	}
}

// TestProgressRunMatchesUntracedBytes pins the trace-scrubbing contract:
// a progress-streamed execution caches the same bytes as an untraced one,
// so either can serve the other's hits.
func TestProgressRunMatchesUntracedBytes(t *testing.T) {
	_, ts1 := newTestServer(t, Config{Workers: 1})
	_, ts2 := newTestServer(t, Config{Workers: 1})

	// Big enough K that at least one 4096-cycle progress sample fires.
	job := `{"op":"gemm","arch":"maeri","ms":16,"bw":16,"m":16,"n":16,"k":256,"seed":3`
	_, rawPlain := postJob(t, ts1, job+`}`)
	var plain Envelope
	if err := json.Unmarshal(rawPlain, &plain); err != nil {
		t.Fatal(err)
	}

	resp, rawStream := postJob(t, ts2, job+`,"progress":true}`)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("progress response Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(rawStream)), "\n")
	var final struct {
		Type string `json:"type"`
		Envelope
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("final line: %v\n%s", err, lines[len(lines)-1])
	}
	if final.Type != "result" {
		t.Fatalf("final line type %q", final.Type)
	}
	if final.Key != plain.Key {
		t.Errorf("progress run changed the key: %s vs %s", final.Key, plain.Key)
	}
	if !bytes.Equal(final.Result, plain.Result) {
		t.Errorf("progress run result differs from untraced run:\n%s\nvs\n%s", final.Result, plain.Result)
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionControl floods a server whose single worker is blocked and
// checks overflow gets 429 with the rejected counter moving.
func TestAdmissionControl(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.run = func(ctx context.Context, j *job, progress progressFn) (*Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &Result{Key: j.key, Op: j.req.Op, Arch: j.jk.Arch}, nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Distinct jobs so none coalesce: capacity is 1 executing + 1 queued.
	job := func(k int) string {
		return fmt.Sprintf(`{"op":"gemm","arch":"maeri","ms":16,"bw":16,"m":8,"n":8,"k":%d,"seed":1}`, k)
	}
	var wg sync.WaitGroup
	codes := make(chan int, 8)
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJob(t, ts, job(i))
			codes <- resp.StatusCode
		}(i)
	}
	// Wait until both admission tokens are actually held before overflowing.
	waitFor(t, "both admission slots to fill", func() bool { return len(s.admit) == 2 })

	resp, body := postJob(t, ts, job(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow got %d (%s), want 429", resp.StatusCode, body)
	}
	if s.Snapshot().Rejected == 0 {
		t.Error("rejected counter did not move")
	}
	close(release)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("admitted job got %d", code)
		}
	}
}

// TestCoalescing submits the same job concurrently while the first is
// stalled: the followers must share the leader's single execution.
func TestCoalescing(t *testing.T) {
	s, err := New(Config{Workers: 4, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var runCount int
	var mu sync.Mutex
	s.run = func(ctx context.Context, j *job, progress progressFn) (*Result, error) {
		mu.Lock()
		runCount++
		mu.Unlock()
		<-release
		return &Result{Key: j.key, Op: j.req.Op, Arch: j.jk.Arch}, nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	results := make(chan Envelope, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, raw := postJob(t, ts, gemmBody)
			var env Envelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Error(err)
				return
			}
			results <- env
		}()
	}
	// Let every request reach the coalescing point, then release.
	waitFor(t, "3 coalesced followers", func() bool { return s.Snapshot().Coalesced == 3 })
	close(release)
	wg.Wait()

	mu.Lock()
	if runCount != 1 {
		t.Errorf("identical concurrent jobs executed %d times, want 1", runCount)
	}
	mu.Unlock()
	cached := 0
	for i := 0; i < 4; i++ {
		if env := <-results; env.Cached {
			cached++
		}
	}
	if cached != 3 {
		t.Errorf("%d of 4 responses were marked cached, want 3 coalesced followers", cached)
	}
}

// TestPanickingJobDoesNotPoisonItsKey pins panic containment: a run that
// panics answers 500 with the panic value (no stack), counts as failed, and
// settles its flight, so the next identical request runs fresh instead of
// coalescing onto a leader that will never finish.
func TestPanickingJobDoesNotPoisonItsKey(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	s.run = func(ctx context.Context, j *job, progress progressFn) (*Result, error) {
		if calls.Add(1) == 1 {
			panic("integer divide by zero")
		}
		return &Result{Key: j.key, Op: j.req.Op, Arch: j.jk.Arch}, nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, raw := postJob(t, ts, gemmBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking job: status %d (%s), want 500", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte("integer divide by zero")) || bytes.Contains(raw, []byte("goroutine")) {
		t.Errorf("panicking job: body %s, want the panic value and no stack", raw)
	}
	if st := s.Snapshot(); st.Inflight != 0 || st.Failed != 1 {
		t.Errorf("after the panic: inflight=%d failed=%d, want 0/1", st.Inflight, st.Failed)
	}

	resp, raw = postJob(t, ts, gemmBody) // hangs on the dead flight without the fix
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil || resp.StatusCode != http.StatusOK || env.Cached {
		t.Fatalf("identical job after the panic: status %d cached=%v (%s), want a fresh 200", resp.StatusCode, env.Cached, raw)
	}
	if st := s.Snapshot(); st.Inflight != 0 || st.Failed != 1 || st.ColdRuns != 1 || st.Coalesced != 0 {
		t.Errorf("after the rerun: inflight=%d failed=%d cold=%d coalesced=%d, want 0/1/1/0",
			st.Inflight, st.Failed, st.ColdRuns, st.Coalesced)
	}
}

// TestLeaderPublishedBetweenProbes pins the miss-path race: a request
// misses the cache, and before it reaches the in-flight table the leader of
// an identical job publishes its result and deletes its flight. The request
// must be served that result warm — not lead a second cold run — and the
// re-probe must not count a second miss.
func TestLeaderPublishedBetweenProbes(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const key = jobkey.Key("published-between-probes")
	want := []byte(`{"cycles":1}`)
	if _, ok := s.cache.Get(key); ok { // the request's cache probe
		t.Fatal("empty cache hit")
	}
	s.cache.Put(key, want) // the leader publishes; its flight is already gone

	f, body, lead := s.joinOrLead(key)
	if lead || f != nil || string(body) != string(want) {
		t.Fatalf("joinOrLead = (flight %v, body %q, lead %v), want the published body served warm", f, body, lead)
	}
	st := s.Snapshot()
	if st.Inflight != 0 || st.WarmHits != 1 || st.Coalesced != 0 {
		t.Errorf("inflight=%d warm=%d coalesced=%d, want 0/1/0", st.Inflight, st.WarmHits, st.Coalesced)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache hits=%d misses=%d, want 1 hit and the one original miss", st.Cache.Hits, st.Cache.Misses)
	}

	// With nothing published the same step leads, and counts no miss either.
	f, body, lead = s.joinOrLead("never-published")
	if !lead || f == nil || body != nil {
		t.Fatalf("joinOrLead on an unknown key = (flight %v, body %q, lead %v), want to lead", f, body, lead)
	}
	if got := s.Snapshot().Cache.Misses; got != 1 {
		t.Errorf("re-probe counted a miss: misses=%d, want 1", got)
	}
}

// TestBadRequests pins the 400 surface: junk op, missing dims, unknown
// fields, unknown arch and over-limit batch all fail fast with an error
// body instead of reaching the simulator.
func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	expect400 := func(name, body, wantInError string) {
		t.Helper()
		resp, raw := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, raw)
			return
		}
		var eb struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" || !strings.Contains(eb.Error, wantInError) {
			t.Errorf("%s: error body %s, want an error naming %q", name, raw, wantInError)
		}
	}
	for name, body := range map[string]string{
		"unknown op":    `{"op":"matmul","m":8,"n":8,"k":8}`,
		"no dims":       `{"op":"gemm","arch":"maeri"}`,
		"unknown field": `{"op":"gemm","m":8,"n":8,"k":8,"bogus":1}`,
		"unknown arch":  `{"op":"gemm","arch":"nope","m":8,"n":8,"k":8}`,
		"batch limit":   `{"op":"gemm","arch":"maeri","m":8,"n":8,"k":8,"batch":999999}`,
		"bad sparsity":  `{"op":"spmm","arch":"sigma","m":8,"n":8,"k":8,"sparsity":1.5}`,
		"bad policy":    `{"op":"spmm","arch":"sigma","m":8,"n":8,"k":8,"policy":"FIFO"}`,
		"conv no shape": `{"op":"conv","arch":"maeri"}`,
		"bad model":     `{"op":"model","arch":"maeri","model":"ZZZ"}`,
		// A preset at an impossible fabric size is the client's mistake, not
		// a failed run: no slot taken, nothing counted as failed.
		"preset ms not 2^k": `{"op":"gemm","arch":"maeri","ms":100,"m":8,"n":8,"k":8}`,
		"tpu ms not square": `{"op":"gemm","arch":"tpu","ms":128,"m":8,"n":8,"k":8}`,
		"trailing garbage":  `{"op":"gemm","arch":"maeri","m":8,"n":8,"k":8} trailing garbage`,
		"second json value": `{"op":"gemm","arch":"maeri","m":8,"n":8,"k":8}{"op":"x"}`,
		"body over the cap": `{"op":"gemm","arch":"maeri","m":8,"n":8,"k":8,"policy":"` + strings.Repeat("x", maxJobBytes) + `"}`,
	} {
		expect400(name, body, "")
	}

	// An explicit hardware description is checked by config.Hardware.Validate
	// before the job takes a slot, the values the DRAM model divides by
	// included: each of these ran (a panic, a hang, a cycle count at infinite
	// bandwidth) while only multi-core chips checked them.
	for field, mutate := range map[string]func(*config.Hardware){
		"DRAM.RowBytes":       func(h *config.Hardware) { h.DRAM.RowBytes = 0 },
		"DRAM.BandwidthGBs":   func(h *config.Hardware) { h.DRAM.BandwidthGBs = 0 },
		"ClockGHz":            func(h *config.Hardware) { h.ClockGHz = 0 },
		"DRAM.Modules":        func(h *config.Hardware) { h.DRAM.Modules = 0 },
		"DRAM.RowMissLatency": func(h *config.Hardware) { h.DRAM.RowMissLatency = -1 },
	} {
		hw := config.MAERILike(16, 16)
		mutate(&hw)
		desc, err := json.Marshal(hw)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []string{`"op":"gemm","m":8,"n":8,"k":8`, `"op":"model","model":"A","scale":32`} {
			expect400("hw "+field, fmt.Sprintf(`{%s,"hw":%s}`, op, desc), "hw: config: "+field)
		}
	}
	// The wire decoder is strict: a description that still carries a key this
	// version no longer has is refused by name, not silently reinterpreted.
	desc, err := json.Marshal(config.MAERILike(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	stale := `{"AccumulationBuffer":true,` + strings.TrimPrefix(string(desc), "{")
	expect400("hw with a removed key", `{"op":"gemm","m":8,"n":8,"k":8,"hw":`+stale+`}`, `"AccumulationBuffer"`)

	if st := s.Snapshot(); st.Failed != 0 || st.ColdRuns != 0 {
		t.Errorf("bad requests reached the simulator: failed=%d cold_runs=%d, want 0/0", st.Failed, st.ColdRuns)
	}
}

// TestServiceJobMatchesSharedRunner pins the CLI/service contract: a job's
// run record is byte for byte what stonne.RunSeededOp — the runner behind
// `stonne gemm|spmm|conv` — yields for the same spelling.
func TestServiceJobMatchesSharedRunner(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	conv := stonne.ConvShape{R: 3, S: 3, C: 4, G: 1, K: 4, N: 1, X: 6, Y: 6, Stride: 1}
	for _, tc := range []struct {
		arch, body string
		op         stonne.SeededOp
	}{
		{"maeri", `"op":"gemm","m":8,"n":8,"k":16`,
			stonne.SeededOp{Op: "gemm", M: 8, N: 8, K: 16}},
		{"sigma", `"op":"spmm","m":8,"n":8,"k":16,"sparsity":0.5,"policy":"lff"`,
			stonne.SeededOp{Op: "spmm", M: 8, N: 8, K: 16, Sparsity: 0.5, Policy: "lff"}},
		{"maeri", `"op":"conv","conv":{"R":3,"S":3,"C":4,"G":1,"K":4,"N":1,"X":6,"Y":6,"Stride":1}`,
			stonne.SeededOp{Op: "conv", Conv: &conv}},
	} {
		resp, raw := postJob(t, ts, fmt.Sprintf(`{"arch":%q,"ms":16,"bw":16,"seed":3,%s}`, tc.arch, tc.body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.op.Op, resp.StatusCode, raw)
		}
		var env Envelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatal(err)
		}
		var res struct {
			Runs []json.RawMessage `json:"runs"`
		}
		if err := json.Unmarshal(env.Result, &res); err != nil || len(res.Runs) != 1 {
			t.Fatalf("%s: %d runs (%v) in %s", tc.op.Op, len(res.Runs), err, env.Result)
		}

		hw, err := sim.PresetHW(tc.arch, 16, 16)
		if err != nil {
			t.Fatal(err)
		}
		hw.Preloaded = true
		inst, err := stonne.CreateInstance(hw)
		if err != nil {
			t.Fatal(err)
		}
		checked, err := tc.op.Check()
		if err != nil {
			t.Fatal(err)
		}
		_, run, err := inst.RunSeededOp(checked, 3)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := json.Marshal(run)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Runs[0], direct) {
			t.Errorf("%s: service run differs from the shared runner:\n%s\n%s", tc.op.Op, res.Runs[0], direct)
		}
	}
}

// TestConcurrentWarmClients holds many clients on eight pre-warmed shapes:
// every response must be a byte-identical replay of its shape's first
// result, and all but a sliver of them cache hits.
func TestConcurrentWarmClients(t *testing.T) {
	const shapes, clients, perClient = 8, 32, 16
	_, ts := newTestServer(t, Config{Workers: 2})
	post := func(shape int) (*Envelope, error) {
		body := fmt.Sprintf(`{"op":"gemm","arch":"maeri","ms":16,"bw":16,"m":8,"n":8,"k":%d,"seed":1}`, 16+shape)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		var env Envelope
		return &env, json.NewDecoder(resp.Body).Decode(&env)
	}
	ref := make([][]byte, shapes)
	for i := range ref {
		env, err := post(i)
		if err != nil {
			t.Fatalf("pre-warm shape %d: %v", i, err)
		}
		ref[i] = env.Result
	}

	var hits atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				shape := (c + i) % shapes
				env, err := post(shape)
				switch {
				case err != nil:
					t.Errorf("client %d shape %d: %v", c, shape, err)
				case !bytes.Equal(env.Result, ref[shape]):
					t.Errorf("client %d shape %d: body differs from the pre-warmed result", c, shape)
				case env.Cached:
					hits.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if rate := float64(hits.Load()) / (clients * perClient); rate < 0.99 {
		t.Errorf("warm hit rate %.4f, want >= 0.99", rate)
	}
}

// TestBatchJob runs a small batch and checks one run per seed comes back.
func TestBatchJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, BatchWorkers: 2})
	_, raw := postJob(t, ts,
		`{"op":"gemm","arch":"maeri","ms":16,"bw":16,"m":8,"n":8,"k":16,"seed":5,"batch":3}`)
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 || len(res.Seeds) != 3 || len(res.OutputSums) != 3 {
		t.Fatalf("batch result has %d runs / %d seeds / %d sums, want 3 each",
			len(res.Runs), len(res.Seeds), len(res.OutputSums))
	}
	if res.Seeds[0] != 5 || res.Seeds[2] != 7 {
		t.Errorf("seeds %v, want 5..7", res.Seeds)
	}
	if res.TotalCycles == 0 {
		t.Error("batch reports zero total cycles")
	}
}

// TestModelChipJob runs a tiny multi-core model job end to end.
func TestModelChipJob(t *testing.T) {
	if testing.Short() {
		t.Skip("model simulation in -short mode")
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, raw := postJob(t, ts,
		`{"op":"model","arch":"maeri","ms":64,"bw":16,"model":"A","scale":32,"seed":1,"chip":{"cores":2,"streams":2}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Chip == nil || res.Chip.Cores != 2 {
		t.Fatalf("chip result missing: %s", env.Result)
	}
	if len(res.OutputSums) != 2 {
		t.Errorf("%d output sums, want one per stream", len(res.OutputSums))
	}
	if res.TotalCycles != res.Chip.MakespanCycles {
		t.Errorf("total cycles %d != makespan %d", res.TotalCycles, res.Chip.MakespanCycles)
	}
}

// TestStatsAndAuxEndpoints smoke-checks /stats, /archs, /healthz and
// /progress.
func TestStatsAndAuxEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	postJob(t, ts, gemmBody)
	postJob(t, ts, gemmBody)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ColdRuns != 1 || st.WarmHits != 1 || st.Cache.Entries != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.ColdLatency.Count != 1 || st.WarmLatency.Count != 1 {
		t.Errorf("latency counts: cold=%d warm=%d", st.ColdLatency.Count, st.WarmLatency.Count)
	}

	resp, err = http.Get(ts.URL + "/archs")
	if err != nil {
		t.Fatal(err)
	}
	var archs []archInfo
	if err := json.NewDecoder(resp.Body).Decode(&archs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(archs) < 4 {
		t.Errorf("/archs lists %d architectures", len(archs))
	}

	for _, path := range []string{"/healthz", "/progress"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestLatencyRingClampsSize pins the divide-by-zero fix: a ring sized <= 0
// must clamp instead of panicking in add on `% cap`.
func TestLatencyRingClampsSize(t *testing.T) {
	for _, size := range []int{-4, 0, 1} {
		l := newLatencyRing(size)
		l.add(3 * time.Millisecond)
		l.add(5 * time.Millisecond)
		s := l.stats()
		if s.Count != 2 {
			t.Errorf("size %d: count %d, want 2", size, s.Count)
		}
		// Window capacity is clamped to 1: the retained sample is the last.
		if got := time.Duration(s.P99Ms * float64(time.Millisecond)); got != 5*time.Millisecond {
			t.Errorf("size %d: p99 %v, want 5ms", size, got)
		}
	}
}

// TestLatencyRingNearestRankTail pins the percentile regression at the
// server's ring: 50 samples 1..50ms must report p99 = 50ms (the max, by
// nearest rank), not 49ms (the truncating index the old code used).
func TestLatencyRingNearestRankTail(t *testing.T) {
	l := newLatencyRing(64)
	for i := 1; i <= 50; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	s := l.stats()
	asDur := func(msv float64) time.Duration { return time.Duration(msv * float64(time.Millisecond)) }
	if got := asDur(s.P99Ms); got != 50*time.Millisecond {
		t.Errorf("p99 = %v, want 50ms (nearest rank includes the tail)", got)
	}
	if got := asDur(s.P50Ms); got != 25*time.Millisecond {
		t.Errorf("p50 = %v, want 25ms", got)
	}
	if got := asDur(s.P90Ms); got != 45*time.Millisecond {
		t.Errorf("p90 = %v, want 45ms", got)
	}
}

// TestEnvelopeTimingSplit checks the queue-wait vs simulate-time split on
// the wire: a cold run reports a positive sim_ms, a warm hit reports 0/0.
func TestEnvelopeTimingSplit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, raw1 := postJob(t, ts, gemmBody)
	var cold Envelope
	if err := json.Unmarshal(raw1, &cold); err != nil {
		t.Fatal(err)
	}
	if !(cold.SimMs > 0) {
		t.Errorf("cold run sim_ms = %g, want > 0", cold.SimMs)
	}
	_, raw2 := postJob(t, ts, gemmBody)
	var warm Envelope
	if err := json.Unmarshal(raw2, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.SimMs > 0 || warm.QueueMs > 0 {
		t.Errorf("warm hit reports timing %g/%g, want 0/0", warm.QueueMs, warm.SimMs)
	}
}
