// Package stats is the simulator's Output Module (Section III): it collects
// per-run performance numbers and activity counts, renders the JSON summary
// and the customized counter file, and aggregates runs into full-model
// totals.
package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Run holds the result of simulating one operation (one offloaded layer).
type Run struct {
	Accelerator string `json:"accelerator"`
	Op          string `json:"op"`
	Layer       string `json:"layer,omitempty"`

	// M, N, K are the GEMM dims (per group for convolutions).
	M int `json:"m"`
	N int `json:"n"`
	K int `json:"k"`

	Cycles uint64 `json:"cycles"`
	// MACs actually performed (differs from dense volume under sparsity or
	// SNAPEA early termination).
	MACs uint64 `json:"macs"`
	// MemAccesses is GB reads + writes (the metric of Fig. 6d).
	MemAccesses uint64 `json:"mem_accesses"`
	// Utilization is average multiplier busy fraction in [0,1].
	Utilization float64 `json:"utilization"`

	Counters map[string]uint64 `json:"counters"`

	// Breakdown is the per-tier cycle attribution filled in when the run
	// was traced (internal/trace): for every tier the busy/stall/drain/idle
	// cycle counts sum exactly to Cycles.
	Breakdown map[string]CycleBreakdown `json:"breakdown,omitempty"`

	// Energy in microjoules by component, filled in by the energy model.
	Energy map[string]float64 `json:"energy_uj,omitempty"`
	// AreaUM2 by component, filled in by the area model.
	AreaUM2 map[string]float64 `json:"area_um2,omitempty"`
}

// CycleBreakdown attributes one tier's share of a run's cycles: exactly one
// class per cycle, so Total() equals the run's cycle count.
type CycleBreakdown struct {
	Busy           uint64 `json:"busy"`
	StallInput     uint64 `json:"stall_input"`
	StallBandwidth uint64 `json:"stall_bandwidth"`
	Drain          uint64 `json:"drain"`
	Idle           uint64 `json:"idle"`
}

// Total sums all attribution classes.
func (b CycleBreakdown) Total() uint64 {
	return b.Busy + b.StallInput + b.StallBandwidth + b.Drain + b.Idle
}

// Accumulate adds another breakdown's counts into b.
func (b *CycleBreakdown) Accumulate(o CycleBreakdown) {
	b.Busy += o.Busy
	b.StallInput += o.StallInput
	b.StallBandwidth += o.StallBandwidth
	b.Drain += o.Drain
	b.Idle += o.Idle
}

// Merge accumulates another run's raw totals into r: cycles, performed
// MACs, memory accesses, every activity counter, the cycle breakdown, and
// the energy/area maps — allocating destination maps on demand so merging
// into a zero-value Run works. Derived metrics (Utilization) are not
// touched — call RecomputeUtilization once all parts are merged.
func (r *Run) Merge(src *Run) {
	r.Cycles += src.Cycles
	r.MACs += src.MACs
	r.MemAccesses += src.MemAccesses
	if len(src.Counters) > 0 && r.Counters == nil {
		r.Counters = make(map[string]uint64, len(src.Counters))
	}
	for k, v := range src.Counters {
		r.Counters[k] += v
	}
	if len(src.Breakdown) > 0 && r.Breakdown == nil {
		r.Breakdown = make(map[string]CycleBreakdown, len(src.Breakdown))
	}
	for tier, b := range src.Breakdown {
		agg := r.Breakdown[tier]
		agg.Accumulate(b)
		r.Breakdown[tier] = agg
	}
	if len(src.Energy) > 0 && r.Energy == nil {
		r.Energy = make(map[string]float64, len(src.Energy))
	}
	for k, v := range src.Energy {
		r.Energy[k] += v
	}
	if len(src.AreaUM2) > 0 && r.AreaUM2 == nil {
		r.AreaUM2 = make(map[string]float64, len(src.AreaUM2))
	}
	for k, v := range src.AreaUM2 {
		r.AreaUM2[k] += v
	}
}

// RecomputeUtilization rederives the average multiplier busy fraction from
// the (possibly merged) MAC and cycle totals for a fabric of msSize
// multiplier switches. A zero-cycle run keeps its existing value.
func (r *Run) RecomputeUtilization(msSize int) {
	if r.Cycles > 0 {
		r.Utilization = float64(r.MACs) / (float64(r.Cycles) * float64(msSize))
	}
}

// TimeSeconds converts cycles at the given clock.
func (r *Run) TimeSeconds(clockGHz float64) float64 {
	return float64(r.Cycles) / (clockGHz * 1e9)
}

// TotalEnergy sums the per-component energy. The walk is over sorted
// component names: float addition is not associative, so summing in map
// iteration order would make the total differ in the last bits from run
// to run, breaking byte-identical summary files.
func (r *Run) TotalEnergy() float64 {
	return SumSorted(r.Energy)
}

// SumSorted adds the values of a float map in sorted-key order. Float
// addition is order-sensitive in the last bits, so a walk in map iteration
// order would make the total differ from call to call.
func SumSorted(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var t float64
	for _, k := range keys {
		t += m[k]
	}
	return t
}

// WriteJSON emits the general summary file format.
func (r *Run) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// breakdownClasses maps each CycleBreakdown field to its counter-file key
// suffix, in emission order.
var breakdownClasses = []struct {
	suffix string
	get    func(CycleBreakdown) uint64
	set    func(*CycleBreakdown, uint64)
}{
	{"busy_cycles", func(b CycleBreakdown) uint64 { return b.Busy }, func(b *CycleBreakdown, v uint64) { b.Busy = v }},
	{"stall_input_cycles", func(b CycleBreakdown) uint64 { return b.StallInput }, func(b *CycleBreakdown, v uint64) { b.StallInput = v }},
	{"stall_bandwidth_cycles", func(b CycleBreakdown) uint64 { return b.StallBandwidth }, func(b *CycleBreakdown, v uint64) { b.StallBandwidth = v }},
	{"drain_cycles", func(b CycleBreakdown) uint64 { return b.Drain }, func(b *CycleBreakdown, v uint64) { b.Drain = v }},
	{"idle_cycles", func(b CycleBreakdown) uint64 { return b.Idle }, func(b *CycleBreakdown, v uint64) { b.Idle = v }},
}

// CounterFile renders the customized counter-file format: one
// component.event=count line per activity class, sorted, followed by the
// cycle-attribution lines (trace.<tier>.<class>=count) when the run was
// traced.
func (r *Run) CounterFile() string {
	keys := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	header := strings.TrimRight(fmt.Sprintf("# STONNE counter file: %s %s %s", r.Accelerator, r.Op, r.Layer), " ")
	fmt.Fprintf(&b, "%s\n", header)
	fmt.Fprintf(&b, "cycles=%d\n", r.Cycles)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, r.Counters[k])
	}
	if len(r.Breakdown) > 0 {
		tiers := make([]string, 0, len(r.Breakdown))
		for tier := range r.Breakdown {
			tiers = append(tiers, tier)
		}
		sort.Strings(tiers)
		for _, tier := range tiers {
			bd := r.Breakdown[tier]
			for _, c := range breakdownClasses {
				fmt.Fprintf(&b, "trace.%s.%s=%d\n", strings.ToLower(tier), c.suffix, c.get(bd))
			}
		}
	}
	return b.String()
}

// ParseCounterFile reads the CounterFile format back into a Run: cycles=N
// sets Cycles, trace.<tier>.<class> lines fill Breakdown (nil when the run
// was untraced), and every other key=value line becomes a counter. Blank
// lines and # comments are skipped. Header fields (accelerator, op, layer)
// are not recovered. A file without a cycles line, a key or value with
// surrounding space, and a repeated key are errors, not silent defaults.
func ParseCounterFile(text string) (*Run, error) {
	r := &Run{Counters: map[string]uint64{}}
	seen := map[string]bool{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, value, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("stats: line %d: not a key=value line: %q", i+1, line)
		}
		if key == "" || strings.TrimSpace(key) != key {
			return nil, fmt.Errorf("stats: line %d: bad key %q", i+1, key)
		}
		if seen[key] {
			return nil, fmt.Errorf("stats: line %d: duplicate key %q", i+1, key)
		}
		seen[key] = true
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stats: line %d: %w", i+1, err)
		}
		if key == "cycles" {
			r.Cycles = n
			continue
		}
		if !r.setBreakdown(key, n) {
			r.Counters[key] = n
		}
	}
	if !seen["cycles"] {
		return nil, fmt.Errorf("stats: counter file has no cycles line")
	}
	return r, nil
}

// setBreakdown stores a trace.<tier>.<class> value in r.Breakdown,
// reporting false when key is not such a line.
func (r *Run) setBreakdown(key string, v uint64) bool {
	rest, ok := strings.CutPrefix(key, "trace.")
	if !ok {
		return false
	}
	tier, suffix, ok := strings.Cut(rest, ".")
	if !ok {
		return false
	}
	for _, c := range breakdownClasses {
		if suffix != c.suffix {
			continue
		}
		if r.Breakdown == nil {
			r.Breakdown = map[string]CycleBreakdown{}
		}
		name := strings.ToUpper(tier)
		bd := r.Breakdown[name]
		c.set(&bd, v)
		r.Breakdown[name] = bd
		return true
	}
	return false
}

// ModelRun aggregates the per-layer runs of a full-model inference.
type ModelRun struct {
	Accelerator string `json:"accelerator"`
	Model       string `json:"model"`
	Runs        []*Run `json:"runs"`
}

// TotalCycles sums cycles over all offloaded layers.
func (m *ModelRun) TotalCycles() uint64 {
	var t uint64
	for _, r := range m.Runs {
		t += r.Cycles
	}
	return t
}

// TotalMACs sums performed MACs.
func (m *ModelRun) TotalMACs() uint64 {
	var t uint64
	for _, r := range m.Runs {
		t += r.MACs
	}
	return t
}

// TotalMemAccesses sums GB accesses.
func (m *ModelRun) TotalMemAccesses() uint64 {
	var t uint64
	for _, r := range m.Runs {
		t += r.MemAccesses
	}
	return t
}

// EnergyBreakdown sums per-component energy over all layers (µJ).
func (m *ModelRun) EnergyBreakdown() map[string]float64 {
	out := map[string]float64{}
	for _, r := range m.Runs {
		for k, v := range r.Energy {
			out[k] += v
		}
	}
	return out
}

// TotalEnergy sums all components (µJ) in sorted-component order, for the
// same determinism reason as Run.TotalEnergy.
func (m *ModelRun) TotalEnergy() float64 {
	return SumSorted(m.EnergyBreakdown())
}

// AvgUtilization is the cycle-weighted mean multiplier utilization: each
// layer's busy fraction weighted by how long it ran, i.e. the average busy
// fraction over the whole model execution.
func (m *ModelRun) AvgUtilization() float64 {
	var wsum, w float64
	for _, r := range m.Runs {
		wsum += r.Utilization * float64(r.Cycles)
		w += float64(r.Cycles)
	}
	if w == 0 {
		return 0
	}
	return wsum / w
}

// WriteJSON emits the aggregated summary.
func (m *ModelRun) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
