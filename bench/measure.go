package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle of vals (mean of the two middle values for an
// even count). It does not modify vals; an empty slice yields 0.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vals with the
// "exclusive" method of Python's statistics.quantiles(vals, n=4) — the
// definition the acceptance check of this benchmark is stated in. Fewer
// than two values yield the single value (or 0) twice.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vals[0], vals[0]
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4) // after the clamp, as Python does: small sets extrapolate
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// nearestRank returns the p-quantile of sorted (ascending) samples by the
// nearest-rank rule: the smallest sample with at least p of the
// distribution at or below it. The p99 of 50 samples is the maximum.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// percentile is nearestRank over unsorted values.
func percentile(vals []float64, p float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return nearestRank(s, p)
}

// timed is one latency sample with the moment it completed, both relative
// to the start of the measured phase.
type timed struct {
	done    time.Duration
	latency time.Duration
}

const (
	// maxWindows is how many windows a run's operations are split into.
	maxWindows = 8
	// minBeyond is how many samples must lie beyond a percentile before a
	// window of requests is trusted to report it.
	minBeyond = 10
)

// windowPercentiles splits the samples, in completion order, into
// consecutive windows of equal count and returns each window's nearest-rank
// p-quantile in milliseconds. There are maxWindows windows, or as many
// fewer as it takes for every window to keep minBeyond samples beyond the
// percentile; never more windows than samples, never fewer than one.
func windowPercentiles(samples []timed, p float64) []float64 {
	n := len(samples)
	if n == 0 {
		return nil
	}
	ordered := append([]timed(nil), samples...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].done < ordered[j].done })
	k := min(maxWindows, n)
	for k > 1 && float64(n/k)*(1-p) < minBeyond {
		k--
	}
	out := make([]float64, 0, k)
	for w := 0; w < k; w++ {
		group := ordered[w*n/k : (w+1)*n/k]
		vals := make([]float64, len(group))
		for i, s := range group {
			vals[i] = ms(s.latency)
		}
		out = append(out, percentile(vals, p))
	}
	return out
}

// quietest returns the lowest of the per-window values: the value in the
// window the host disturbed least. On the reference host something takes a
// core for ten to twenty seconds about once a minute; the quietest window
// shows what the program does without it, the median across windows what a
// caller sees with it.
func quietest(perWindow []float64) float64 {
	if len(perWindow) == 0 {
		return 0
	}
	return slices.Min(perWindow)
}

// iteration is one timed iteration of a workload's untraced pass.
type iteration struct {
	wall    time.Duration
	ops     int     // operations completed in it
	cycles  uint64  // simulated cycles it accounts for
	allocMB float64 // heap it allocated (per 1000 requests on serve workloads)
}

// reportIterations turns the iterations of an untraced pass into the gated
// metrics of an iteration and records their whole-run counterparts beside
// them. Time and rates are those of the quietest iteration, which a
// disturbance of the host has to cover the whole run to reach.
func reportIterations(o *outcome, its []iteration) {
	var wall, opsPerS, cyclesPerS, alloc []float64
	var busy time.Duration
	ops := 0
	for _, it := range its {
		wall = append(wall, it.wall.Seconds())
		opsPerS = append(opsPerS, ratio(float64(it.ops), it.wall.Seconds()))
		cyclesPerS = append(cyclesPerS, ratio(float64(it.cycles), it.wall.Seconds()))
		alloc = append(alloc, it.allocMB)
		busy += it.wall
		ops += it.ops
	}
	o.metrics["host_s"] = slices.Min(wall)
	o.metrics["sim_cycles_per_s"] = slices.Max(cyclesPerS)
	o.metrics["req_per_s"] = slices.Max(opsPerS)
	o.metrics["alloc_mb"] = median(alloc)

	q1, q3 := quartiles(wall)
	o.extra["host_s_median"], o.extra["host_s_q1"], o.extra["host_s_q3"] = median(wall), q1, q3
	o.extra["req_per_s_mean"] = ratio(float64(ops), busy.Seconds())
	o.extra["iterations"] = len(its)
}

// reportLatencies turns the request latencies of an untraced pass into the
// gated percentiles: each is taken per window and the median across windows
// is reported, so it reads the tail a caller sees and one pause does not set
// it. The quietest window's value is recorded beside it.
func reportLatencies(o *outcome, latencies []timed) {
	p50, p90 := windowPercentiles(latencies, 0.50), windowPercentiles(latencies, 0.90)
	o.metrics["latency_p50_ms"] = median(p50)
	o.metrics["latency_p90_ms"] = median(p90)
	o.extra["latency_p50_ms_quietest_window"], o.extra["latency_p90_ms_quietest_window"] = quietest(p50), quietest(p90)
	o.extra["samples"] = len(latencies)
}

// totalAllocMB reads the process's cumulative heap allocation in MB. The
// difference across an interval is what the interval allocated.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM) in
// MB, or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
