package stats

import (
	"math"
	"sort"
	"time"
)

// LatencySummary condenses a set of request latencies into the serving
// layer's standard report shape: count, min/mean/max and nearest-rank
// percentiles, all in milliseconds. It is shared by the stonned /stats
// endpoint and the trace-replay reports so every surface quotes
// percentiles with the same (tail-inclusive) definition.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MinMs  float64 `json:"min_ms"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// PercentileDuration returns the p-quantile of sorted (ascending) samples
// using the nearest-rank definition: the smallest sample such that at
// least p of the distribution is at or below it, i.e. index ceil(p·n)-1.
// Unlike the truncating int(p·(n-1)) form it never under-reports the tail
// — the p99 of 50 samples is the maximum, not the 49th of 50. p is
// clamped to [0,1]; an empty slice yields 0.
func PercentileDuration(sorted []time.Duration, p float64) time.Duration {
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

// SummarizeLatencies computes the summary of samples (order irrelevant;
// the input slice is not modified). Callers must pass only the latencies
// that belong in the distribution — failed requests are reported as a
// separate count, never mixed into the percentiles.
func SummarizeLatencies(samples []time.Duration) LatencySummary {
	if len(samples) == 0 {
		return LatencySummary{}
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencySummary{
		Count:  uint64(len(sorted)),
		MinMs:  ms(sorted[0]),
		MeanMs: ms(sum) / float64(len(sorted)),
		P50Ms:  ms(PercentileDuration(sorted, 0.50)),
		P90Ms:  ms(PercentileDuration(sorted, 0.90)),
		P99Ms:  ms(PercentileDuration(sorted, 0.99)),
		MaxMs:  ms(sorted[len(sorted)-1]),
	}
}
