package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// testTrace mixes explicit requests, a repeat scenario (warm traffic), a
// seed-stepped scan (cold traffic) and a Poisson scenario.
const testTraceJSON = `{
  "version": 1,
  "name": "test-mix",
  "requests": [
    {"scenario": "solo", "arrival_ms": 0,
     "job": {"op":"gemm","arch":"maeri","ms":16,"bw":16,"m":8,"n":8,"k":16,"seed":1}}
  ],
  "scenarios": [
    {"name": "repeat", "start_ms": 1, "count": 4, "interval_ms": 1,
     "job": {"op":"gemm","arch":"maeri","ms":16,"bw":16,"m":8,"n":8,"k":16,"seed":1}},
    {"name": "scan", "start_ms": 2, "count": 3, "interval_ms": 1, "seed_step": 1,
     "job": {"op":"gemm","arch":"maeri","ms":16,"bw":16,"m":8,"n":8,"k":20,"seed":5}},
    {"name": "poisson", "start_ms": 0, "count": 3, "rate_rps": 2000,
     "job": {"op":"gemm","arch":"maeri","ms":16,"bw":16,"m":8,"n":8,"k":24,"seed":9}}
  ]
}`

func parseTestTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := ParseTrace([]byte(testTraceJSON))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// stubServer builds a server whose run hook returns a deterministic
// payload per key without simulating — replay mechanics without kernel
// cost.
func stubServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.run = func(ctx context.Context, j *job, progress progressFn) (*Result, error) {
		return &Result{Key: j.key, Op: j.jk.Op, Arch: j.jk.Arch, TotalCycles: uint64(len(j.key))}, nil
	}
	return s
}

// TestTraceExpandDeterministic: the expanded schedule is a pure function
// of (trace, seed) — identical arrivals, order and job seeds across
// calls; a different replay seed moves the Poisson arrivals.
func TestTraceExpandDeterministic(t *testing.T) {
	tr := parseTestTrace(t)
	a, err := tr.Expand(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Expand(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 11 {
		t.Fatalf("expanded %d requests, want 11", len(a))
	}
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].Scenario != b[i].Scenario ||
			a[i].Job.Seed != b[i].Job.Seed || a[i].Index != i {
			t.Fatalf("expansion differs at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c, err := tr.Expand(43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].Arrival != c[i].Arrival {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical Poisson arrivals")
	}
	// Fixed-interval and explicit arrivals must not depend on the seed:
	// the non-Poisson subsequence (whose relative order is seed-free) is
	// identical under both seeds.
	type fixed struct {
		scenario string
		arrival  time.Duration
		seed     uint64
	}
	subseq := func(sched []ScheduledRequest) []fixed {
		var out []fixed
		for _, sr := range sched {
			if sr.Scenario != "poisson" {
				out = append(out, fixed{sr.Scenario, sr.Arrival, sr.Job.Seed})
			}
		}
		return out
	}
	fa, fc := subseq(a), subseq(c)
	if len(fa) != len(fc) {
		t.Fatalf("non-Poisson counts differ: %d vs %d", len(fa), len(fc))
	}
	for i := range fa {
		if fa[i] != fc[i] {
			t.Errorf("non-Poisson request %d changed with the seed: %+v vs %+v", i, fa[i], fc[i])
		}
	}
}

// TestTraceExpandScanSeeds: seed_step advances the job seed per request.
func TestTraceExpandScanSeeds(t *testing.T) {
	tr := parseTestTrace(t)
	sched, err := tr.Expand(1)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[uint64]bool{}
	for _, sr := range sched {
		if sr.Scenario == "scan" {
			seeds[sr.Job.Seed] = true
		}
	}
	for want := uint64(5); want <= 7; want++ {
		if !seeds[want] {
			t.Errorf("scan scenario missing seed %d (got %v)", want, seeds)
		}
	}
}

// TestParseTraceRejects pins the format validation surface.
func TestParseTraceRejects(t *testing.T) {
	for name, body := range map[string]string{
		"wrong version":  `{"version":2,"name":"x","requests":[{"arrival_ms":0,"job":{"op":"gemm"}}]}`,
		"no version":     `{"name":"x","requests":[{"arrival_ms":0,"job":{"op":"gemm"}}]}`,
		"empty":          `{"version":1,"name":"x"}`,
		"unnamed scen":   `{"version":1,"name":"x","scenarios":[{"count":1,"job":{"op":"gemm"}}]}`,
		"zero count":     `{"version":1,"name":"x","scenarios":[{"name":"s","count":0,"job":{"op":"gemm"}}]}`,
		"both timings":   `{"version":1,"name":"x","scenarios":[{"name":"s","count":1,"interval_ms":1,"rate_rps":5,"job":{"op":"gemm"}}]}`,
		"negative time":  `{"version":1,"name":"x","requests":[{"arrival_ms":-1,"job":{"op":"gemm"}}]}`,
		"over the limit": `{"version":1,"name":"x","scenarios":[{"name":"s","count":999999,"job":{"op":"gemm"}}]}`,
	} {
		if _, err := ParseTrace([]byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestExpandRejectsBadJob: a trace whose job cannot resolve fails at
// expansion with the scenario named, not as mid-replay 400s.
func TestExpandRejectsBadJob(t *testing.T) {
	tr, err := ParseTrace([]byte(
		`{"version":1,"name":"x","scenarios":[{"name":"bad","count":1,"job":{"op":"gemm","arch":"nope","m":8,"n":8,"k":8}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Expand(1); err == nil || !strings.Contains(err.Error(), "bad") {
		t.Errorf("expand error %v, want one naming scenario %q", err, "bad")
	}
}

func replayOnce(t *testing.T, s *Server, tr *Trace, seed uint64) *ReplayReport {
	t.Helper()
	rep := &Replayer{
		Client: InProcClient(s.Handler()),
		Base:   "http://test.replay",
		Speed:  1000, // compress the tiny offsets to near-zero wall time
	}
	report, err := rep.Replay(context.Background(), tr, seed)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestReplayDeterminism is the tentpole's acceptance pin: the same trace
// and seed, replayed against two fresh daemons, produce identical
// deterministic report fields — per-scenario counts, warm/cold split (per
// key owner, see below) and the result digests — even though wall-clock
// latencies differ.
func TestReplayDeterminism(t *testing.T) {
	tr := parseTestTrace(t)
	r1 := replayOnce(t, stubServer(t, Config{Workers: 4, QueueDepth: 32}), tr, 7)
	r2 := replayOnce(t, stubServer(t, Config{Workers: 4, QueueDepth: 32}), tr, 7)

	if r1.Digest != r2.Digest {
		t.Errorf("digests differ: %s vs %s", r1.Digest, r2.Digest)
	}
	if r1.Requests != r2.Requests || r1.Completed != r2.Completed ||
		r1.Warm != r2.Warm || r1.Cold != r2.Cold ||
		r1.Rejected != r2.Rejected || r1.Failed != r2.Failed {
		t.Errorf("counts differ:\n%+v\nvs\n%+v", r1, r2)
	}
	if len(r1.Scenarios) != len(r2.Scenarios) {
		t.Fatalf("scenario counts differ: %d vs %d", len(r1.Scenarios), len(r2.Scenarios))
	}
	// solo and repeat share one key and arrive a microsecond apart at this
	// speed, so which of the two takes that key's one cold run is a
	// scheduling race: their warm/cold split is pinned as one sum. scan and
	// poisson own their keys and are pinned per scenario.
	var shared1, shared2 [2]int
	for i := range r1.Scenarios {
		a, b := r1.Scenarios[i], r2.Scenarios[i]
		if a.Name != b.Name || a.Digest != b.Digest || a.Requests != b.Requests {
			t.Errorf("scenario %s differs: %+v vs %+v", a.Name, a, b)
		}
		if a.Name == "solo" || a.Name == "repeat" {
			shared1[0], shared1[1] = shared1[0]+a.Warm, shared1[1]+a.Cold
			shared2[0], shared2[1] = shared2[0]+b.Warm, shared2[1]+b.Cold
		} else if a.Warm != b.Warm || a.Cold != b.Cold {
			t.Errorf("scenario %s warm/cold differs: %+v vs %+v", a.Name, a, b)
		}
	}
	if shared1 != shared2 || shared1 != [2]int{4, 1} {
		t.Errorf("solo+repeat warm/cold %v vs %v, want [4 1] both", shared1, shared2)
	}

	// The deterministic shape itself: 11 requests, all completed. The
	// repeat scenario plus the solo request share one key -> exactly one
	// cold run among those 5; the scan contributes 3 colds, poisson 1.
	if r1.Requests != 11 || r1.Completed != 11 || r1.Failed != 0 || r1.Rejected != 0 {
		t.Errorf("unexpected outcome counts: %+v", r1)
	}
	if r1.Cold != 5 || r1.Warm != 6 {
		t.Errorf("warm/cold split %d/%d, want 6/5", r1.Warm, r1.Cold)
	}
}

// TestReplayAgainstRealServer runs the bundled-trace shape end to end
// with the real simulator, checking report integrity invariants.
func TestReplayAgainstRealServer(t *testing.T) {
	s, err := New(Config{Workers: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	tr := parseTestTrace(t)
	report := replayOnce(t, s, tr, 1)
	if report.Completed != 11 || report.Failed != 0 {
		t.Fatalf("report: %+v", report)
	}
	if !(report.Latency.P99Ms >= report.Latency.P50Ms) {
		t.Errorf("p99 %g < p50 %g", report.Latency.P99Ms, report.Latency.P50Ms)
	}
	if report.Latency.Count != 11 {
		t.Errorf("latency over %d samples, want 11 (successes only)", report.Latency.Count)
	}
	var simP99 time.Duration = time.Duration(report.SimTime.P99Ms * float64(time.Millisecond))
	if simP99 <= 0 {
		t.Error("sim-time split is empty on a cold replay")
	}
	// A second replay against the same (now warm) server: everything warm,
	// same digest — the cache replays the identical bytes.
	again := replayOnce(t, s, tr, 1)
	if again.Cold != 0 || again.Warm != 11 {
		t.Errorf("second replay warm/cold = %d/%d, want 11/0", again.Warm, again.Cold)
	}
	if again.Digest != report.Digest {
		t.Error("warm replay digest differs from cold replay")
	}
	if !(again.WarmRate > 0.99) {
		t.Errorf("warm rate %g, want ~1", again.WarmRate)
	}
}

// TestReplayCountsRejections: a server with no capacity rejects; the
// report routes 429s to Rejected, never into the latency distribution.
func TestReplayCountsRejections(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 0})
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	s.run = func(ctx context.Context, j *job, progress progressFn) (*Result, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &Result{Key: j.key}, nil
	}
	// 6 distinct jobs all at t=0 against 1 worker + 0 queue: 1 admitted
	// (stuck), 5 rejected. Release on cleanup.
	var reqs []string
	for k := 16; k < 22; k++ {
		reqs = append(reqs, fmt.Sprintf(
			`{"arrival_ms":0,"job":{"op":"gemm","arch":"maeri","ms":16,"bw":16,"m":8,"n":8,"k":%d,"seed":1}}`, k))
	}
	tr, err := ParseTrace([]byte(
		`{"version":1,"name":"flood","requests":[` + strings.Join(reqs, ",") + `]}`))
	if err != nil {
		t.Fatal(err)
	}
	rep := &Replayer{
		Client:  InProcClient(s.Handler()),
		Base:    "http://test.replay",
		Speed:   1000,
		Timeout: 300 * time.Millisecond, // the one admitted job times out
	}
	report, err := rep.Replay(context.Background(), tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if report.Rejected < 4 {
		t.Errorf("rejected %d, want >= 4 of 6", report.Rejected)
	}
	if report.Rejected+report.Failed+report.Completed != 6 {
		t.Errorf("outcomes do not partition: %+v", report)
	}
	if report.Latency.Count != uint64(report.Completed) {
		t.Errorf("latency samples %d != completed %d: failures leaked into the distribution",
			report.Latency.Count, report.Completed)
	}
}

// TestReplayReportWireFormat pins the report's JSON — field names and
// order — to the bytes the report marshalled to when ReplayReport and
// ScenarioReport each spelled the summary fields out: the embedded
// ReplaySummary must stay invisible on the wire (stonnetrace -json
// consumers parse it).
func TestReplayReportWireFormat(t *testing.T) {
	outs := []outcome{
		{scenario: "steady", status: http.StatusOK, latency: 4 * time.Millisecond, queueMs: 1, simMs: 2.5, result: []byte(`{"total_cycles":9}`)},
		{scenario: "steady", status: http.StatusOK, cached: true, latency: time.Millisecond, result: []byte(`{"total_cycles":9}`)},
		{scenario: "burst", status: http.StatusTooManyRequests, latency: time.Millisecond},
		{scenario: "burst", latency: 2 * time.Millisecond},
	}
	got, err := json.Marshal(buildReport(&Trace{Name: "fixed"}, 7, 2, 10*time.Millisecond, outs))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"trace":"fixed","seed":7,"speed":2,"duration_ms":10,"requests":4,"completed":2,"warm":1,"cold":1,"rejected":1,"failed":1,"warm_rate":0.5,"latency":{"count":2,"min_ms":1,"mean_ms":2.5,"p50_ms":1,"p90_ms":4,"p99_ms":4,"max_ms":4},"queue_wait":{"count":2,"min_ms":0,"mean_ms":0.5,"p50_ms":0,"p90_ms":1,"p99_ms":1,"max_ms":1},"sim_time":{"count":2,"min_ms":0,"mean_ms":1.25,"p50_ms":0,"p90_ms":2.5,"p99_ms":2.5,"max_ms":2.5},"digest":"f4eb2ebdf38f5128b87acd499cd07f11e51cb0d240b26a4668b20ecfaae955b3","scenarios":[{"name":"burst","requests":2,"completed":0,"warm":0,"cold":0,"rejected":1,"failed":1,"warm_rate":0,"latency":{"count":0,"min_ms":0,"mean_ms":0,"p50_ms":0,"p90_ms":0,"p99_ms":0,"max_ms":0},"queue_wait":{"count":0,"min_ms":0,"mean_ms":0,"p50_ms":0,"p90_ms":0,"p99_ms":0,"max_ms":0},"sim_time":{"count":0,"min_ms":0,"mean_ms":0,"p50_ms":0,"p90_ms":0,"p99_ms":0,"max_ms":0},"digest":"7a192d793a0c81fc1a1ed8bca72d0ef749c65fa965588f08cadb11498b4287ab"},{"name":"steady","requests":2,"completed":2,"warm":1,"cold":1,"rejected":0,"failed":0,"warm_rate":0.5,"latency":{"count":2,"min_ms":1,"mean_ms":2.5,"p50_ms":1,"p90_ms":4,"p99_ms":4,"max_ms":4},"queue_wait":{"count":2,"min_ms":0,"mean_ms":0.5,"p50_ms":0,"p90_ms":1,"p99_ms":1,"max_ms":1},"sim_time":{"count":2,"min_ms":0,"mean_ms":1.25,"p50_ms":0,"p90_ms":2.5,"p99_ms":2.5,"max_ms":2.5},"digest":"af9c201adaa3cc0ca5a8d0588a095c5b75b4e36b11bc1a3cc102a938a705c420"}]}`
	if string(got) != want {
		t.Errorf("report wire format changed:\n got %s\nwant %s", got, want)
	}
}
