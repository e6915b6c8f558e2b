// Command stonnetrace replays an arrival trace against a stonned server
// and reports per-scenario latency percentiles, the queue-wait vs
// simulate-time split, warm/cold/rejected counts and a result digest —
// the serving layer's workload harness.
//
// With -addr it targets a running daemon; without, it starts an
// in-process stonned (optionally with a persistent -cache-dir), so a replay
// is self-contained while still exercising the full HTTP serving path.
//
//	stonnetrace -trace examples/traces/tiny.json -speed 50
//	stonnetrace -trace examples/traces/tiny.json -cache-dir /tmp/c -min-warm-rate 0.99
//
// The report digest is a SHA-256 over every result body in schedule
// order: replaying the same trace and seed against a warm (or
// deterministic cold) server yields the same digest, which is how
// TestDaemonSmoke (cmd/stonned) proves a restarted daemon serves
// byte-identical results.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/serve"
)

func main() {
	tracePath := flag.String("trace", "", "arrival trace file (required)")
	addr := flag.String("addr", "", "target server base URL (empty = start an in-process server)")
	seed := flag.Uint64("seed", 1, "replay seed: drives generated scenario arrivals")
	speed := flag.Float64("speed", 1, "time compression: an arrival offset of t fires at t/speed")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request timeout")
	jsonOut := flag.Bool("json", false, "print the full report as JSON on stdout")
	workers := flag.Int("workers", 0, "in-process server workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "in-process server queue depth")
	cacheDir := flag.String("cache-dir", "", "in-process server persistent cache directory")
	minWarmRate := flag.Float64("min-warm-rate", -1, "fail below this warm rate (negative = no check)")
	maxFailed := flag.Int("max-failed", 0, "fail above this many failed requests (negative = no check)")
	maxRejected := flag.Int("max-rejected", -1, "fail above this many rejected requests (negative = no check)")
	flag.Parse()

	if *tracePath == "" {
		fatal(fmt.Errorf("-trace is required"))
	}
	data, err := os.ReadFile(*tracePath)
	if err != nil {
		fatal(err)
	}
	tr, err := serve.ParseTrace(data)
	if err != nil {
		fatal(err)
	}

	base := *addr
	if base == "" {
		s, err := serve.New(serve.Config{Workers: *workers, QueueDepth: *queue, CacheDir: *cacheDir})
		if err != nil {
			fatal(err)
		}
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		base = srv.URL
		fmt.Fprintf(os.Stderr, "stonnetrace: in-process server at %s\n", base)
	}

	rep := &serve.Replayer{Base: base, Speed: *speed, Timeout: *timeout}
	report, err := rep.Replay(context.Background(), tr, *seed)
	if err != nil {
		fatal(err)
	}

	printHuman(os.Stderr, report)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
	}

	switch {
	case *maxFailed >= 0 && report.Failed > *maxFailed:
		fatal(fmt.Errorf("%d requests failed (max %d)", report.Failed, *maxFailed))
	case *maxRejected >= 0 && report.Rejected > *maxRejected:
		fatal(fmt.Errorf("%d requests rejected (max %d)", report.Rejected, *maxRejected))
	case *minWarmRate >= 0 && report.WarmRate < *minWarmRate:
		fatal(fmt.Errorf("warm rate %.4f below the required %.4f", report.WarmRate, *minWarmRate))
	}
}

func printHuman(w *os.File, r *serve.ReplayReport) {
	fmt.Fprintf(w, "trace       : %s (%d requests, %d scenarios, seed %d, %gx speed)\n",
		r.Trace, r.Requests, len(r.Scenarios), r.Seed, r.Speed)
	fmt.Fprintf(w, "duration    : %.1fms\n", r.DurationMs)
	fmt.Fprintf(w, "requests    : %d ok (%d warm + %d cold, %.1f%% warm), %d rejected, %d failed\n",
		r.Completed, r.Warm, r.Cold, 100*r.WarmRate, r.Rejected, r.Failed)
	fmt.Fprintf(w, "latency     : p50 %.3fms p90 %.3fms p99 %.3fms (max %.3fms)\n",
		r.Latency.P50Ms, r.Latency.P90Ms, r.Latency.P99Ms, r.Latency.MaxMs)
	fmt.Fprintf(w, "queue/sim   : queue p99 %.3fms, sim p99 %.3fms\n",
		r.QueueWait.P99Ms, r.SimTime.P99Ms)
	fmt.Fprintf(w, "digest      : %s\n", r.Digest)
	for _, s := range r.Scenarios {
		fmt.Fprintf(w, "scenario %-16s: %d req, %d warm, %d cold, %d rej, %d fail, p50 %.3fms p99 %.3fms\n",
			s.Name, s.Requests, s.Warm, s.Cold, s.Rejected, s.Failed,
			s.Latency.P50Ms, s.Latency.P99Ms)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stonnetrace:", err)
	os.Exit(1)
}
