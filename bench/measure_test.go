package main

import (
	"math"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.median / statistics.quantiles(v, n=4).
	cases := []struct {
		vals        []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 3.5, 1.25, 5.75},
		{[]float64{1, 2, 3}, 2, 1, 3},
		{[]float64{5, 1}, 3, 0, 6},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.vals)
		if m := median(c.vals); !near(m, c.med) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.vals, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if median(nil) != 0 {
		t.Error("median of nothing must be 0")
	}
}

func TestNearestRankNeverUnderReportsTheTail(t *testing.T) {
	// The p99 of 50 samples is the maximum: ceil(0.99*50) = 50. The
	// truncating int(p*(n-1)) form once used here returned the 49th.
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = float64(50 - i) // unsorted on purpose
	}
	if got := percentile(vals, 0.99); got != 50 {
		t.Errorf("p99 of 1..50 = %v, want the maximum 50", got)
	}
	if got := percentile(vals, 0.50); got != 25 {
		t.Errorf("p50 of 1..50 = %v, want 25", got)
	}
	if got := percentile(vals, 0.90); got != 45 {
		t.Errorf("p90 of 1..50 = %v, want 45", got)
	}
	if got := percentile([]float64{4}, 0.99); got != 4 {
		t.Errorf("p99 of one sample = %v, want it", got)
	}
}

// window builds n samples completing evenly inside second w with
// latencies 1..n ms.
func window(w, n int) []timed {
	out := make([]timed, n)
	for i := range out {
		out[i] = timed{
			done:    time.Duration(w)*time.Second + time.Duration(i+1)*time.Second/time.Duration(n+1),
			latency: time.Duration(i+1) * time.Millisecond,
		}
	}
	return out
}

func TestWindowPercentilesAndTheQuietestWindow(t *testing.T) {
	// Eight windows of 2000 samples with latencies 1..2000 ms (p99 = 1980,
	// p50 = 1000 each), handed over out of order. A pause hits the third
	// window: its slowest 5% take 5 s. Over the whole run the p99 would be
	// 5 s; window by window only the third reads that, and both the
	// quietest window and the median across windows ignore it.
	var samples []timed
	for _, w := range []int{5, 2, 7, 0, 3, 6, 1, 4} {
		samples = append(samples, window(w, 2000)...)
	}
	for i := range samples {
		if samples[i].done > 2*time.Second && samples[i].done < 3*time.Second && samples[i].latency > 1900*time.Millisecond {
			samples[i].latency = 5 * time.Second
		}
	}
	p99 := windowPercentiles(samples, 0.99)
	if len(p99) != maxWindows {
		t.Fatalf("%d windows, want %d", len(p99), maxWindows)
	}
	for w, v := range p99 {
		if want := map[bool]float64{false: 1980, true: 5000}[w == 2]; !near(v, want) {
			t.Errorf("window %d: p99 %v ms, want %v", w, v, want)
		}
	}
	if got := quietest(p99); !near(got, 1980) {
		t.Errorf("quietest p99 = %v ms, want 1980", got)
	}
	if got := median(p99); !near(got, 1980) {
		t.Errorf("median-window p99 = %v ms, want 1980", got)
	}
	if got := quietest(windowPercentiles(samples, 0.50)); !near(got, 1000) {
		t.Errorf("quietest p50 = %v ms, want 1000", got)
	}
}

func TestWindowsShrinkUntilThePercentileIsSupported(t *testing.T) {
	// 288 concurrent-request samples: the p90 needs ten beyond it, so a
	// window needs 100 samples and only two windows fit; the p50 is
	// supported by all eight.
	samples := window(0, 288)
	if got := len(windowPercentiles(samples, 0.90)); got != 2 {
		t.Errorf("p90 over 288 samples used %d windows, want 2", got)
	}
	if got := len(windowPercentiles(samples, 0.50)); got != 8 {
		t.Errorf("p50 over 288 samples used %d windows, want 8", got)
	}
	// Fifty samples cannot support a p99 in any split: one window, and its
	// nearest-rank p99 is the maximum.
	if got := windowPercentiles(window(0, 50), 0.99); len(got) != 1 || got[0] != 50 {
		t.Errorf("p99 over 50 samples = %v, want one window reading the maximum 50", got)
	}
	if got := windowPercentiles(nil, 0.5); got != nil || quietest(got) != 0 || median(got) != 0 {
		t.Errorf("no samples: %v", got)
	}
}

func TestReportIterationsTakesTheQuietest(t *testing.T) {
	// Four iterations of one operation and 1000 cycles; the host disturbed
	// the second and third.
	o := newOutcome()
	var its []iteration
	for _, w := range []time.Duration{100, 150, 170, 104} {
		its = append(its, iteration{wall: w * time.Millisecond, ops: 1, cycles: 1000, allocMB: 7})
	}
	reportIterations(o, its)
	for name, v := range map[string]float64{"host_s": 0.100, "sim_cycles_per_s": 10000, "req_per_s": 10, "alloc_mb": 7} {
		if !near(o.metrics[name], v) {
			t.Errorf("%s = %v, want %v", name, o.metrics[name], v)
		}
	}
	if got := o.extra["host_s_median"].(float64); !near(got, 0.127) {
		t.Errorf("host_s_median = %v, want 0.127: the whole-run value is kept beside the gated one", got)
	}
}

func TestReportLatenciesTakesTheMedianWindow(t *testing.T) {
	// Eight windows of 200 requests with latencies 1..200 ms (p50 100, p90
	// 180). A pause doubles every latency of two windows and the host left
	// one window alone, where they halve. The gated percentiles are those
	// of the median window: the tail a caller sees, whatever one pause or
	// one lucky window did.
	var samples []timed
	for w := 0; w < 8; w++ {
		for _, s := range window(w, 200) {
			switch w {
			case 2, 5:
				s.latency *= 2
			case 6:
				s.latency /= 2
			}
			samples = append(samples, s)
		}
	}
	o := newOutcome()
	reportLatencies(o, samples)
	if p50, p90 := o.metrics["latency_p50_ms"], o.metrics["latency_p90_ms"]; !near(p50, 100) || !near(p90, 180) {
		t.Errorf("latency p50 %v ms, p90 %v ms, want 100 and 180", p50, p90)
	}
	if got := o.extra["latency_p90_ms_quietest_window"].(float64); !near(got, 90) {
		t.Errorf("latency_p90_ms_quietest_window = %v, want 90", got)
	}
}

func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	// Ten requests due every 20 ms to a single client whose first request
	// stalls for 200 ms. Timed from when each was sent, the nine behind it
	// would look instant; timed from when each was due, they carry the
	// stall. The generator itself must not run late: it never waits for a
	// client.
	const n, gap, stall = 10, 20 * time.Millisecond, 200 * time.Millisecond
	schedule := make([]time.Duration, n)
	for i := range schedule {
		schedule[i] = time.Duration(i) * gap
	}
	var served atomic.Int32
	origin := time.Now()
	sent, done := openLoop(schedule, 1, origin, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
		served.Add(1)
	})
	if served.Load() != n {
		t.Fatalf("served %d of %d", served.Load(), n)
	}
	for i := 1; i < n; i++ {
		latency, want := done[i]-schedule[i], stall-schedule[i]
		if want > 0 && latency < want-5*time.Millisecond {
			t.Errorf("request %d: latency %v from its due time, want at least %v (the stall ahead of it)", i, latency, want)
		}
	}
	if latency := done[1] - schedule[1]; latency < 150*time.Millisecond {
		t.Errorf("the request behind the stall reports %v; the stall was not counted", latency)
	}
	for i := range sent {
		if late := sent[i] - schedule[i]; late > 15*time.Millisecond {
			t.Errorf("generator fired request %d %v late: it must not wait for the stalled client", i, late)
		}
	}
}

func TestPoissonScheduleIsSeededAndOrdered(t *testing.T) {
	a := poissonSchedule(7, 100, 2*time.Second)
	b := poissonSchedule(7, 100, 2*time.Second)
	c := poissonSchedule(8, 100, 2*time.Second)
	if len(a) < 120 || len(a) > 280 {
		t.Errorf("%d arrivals in 2 s at 100/s", len(a))
	}
	if len(a) != len(b) {
		t.Fatal("same seed, different schedules")
	}
	same := len(a) == len(c)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different schedules")
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatal("arrivals out of order")
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
}

func TestClosedLoopRunsEveryJobOnce(t *testing.T) {
	var hits atomic.Int32
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusTeapot)
	})
	client := serve.InProcClient(h)
	job := &serveJob{body: []byte(`{}`)}
	samples := closedLoop(client, 3, 40, time.Now(), func(int) *serveJob { return job },
		func(_ *serveJob, a answer, err error) bool { return err == nil && a.status == http.StatusTeapot })
	if hits.Load() != 40 || len(samples) != 40 || !allOK(samples) {
		t.Errorf("%d requests served, %d samples, all ok %v", hits.Load(), len(samples), allOK(samples))
	}
	for i, s := range samples {
		if s.job != i {
			t.Fatalf("sample %d belongs to job %d: samples must come back in job order", i, s.job)
		}
	}
}
