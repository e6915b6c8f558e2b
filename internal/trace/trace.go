// Package trace is the cycle-attribution observability layer: it classifies
// every simulated cycle, per hardware tier, into one of five classes —
// busy, stall-on-input, stall-on-bandwidth, drain, idle — so a run reports
// not just how many cycles it took but where they went. This is the
// information analytical models lack (Section I/V of the paper: SCALE-Sim
// style formulas err by up to 4x precisely because they cannot see pipeline
// stalls under bandwidth pressure), surfaced three ways: per-tier totals on
// stats.Run, Chrome trace_event JSON for Perfetto, and periodic progress
// callbacks for live sweep monitoring.
//
// The recorder piggybacks on the activity counters the hardware modules
// already maintain: each tier is classified by the per-cycle delta of a
// small fixed set of pre-resolved comp.Counter handles, so an enabled
// recorder costs one Value() read per watched counter per cycle and a
// disabled one costs a single nil check in the kernel loop (the overhead
// guarantee the benchmarks pin).
package trace

import (
	"repro/internal/comp"
	"repro/internal/comp/names"
	"repro/internal/stats"
)

// Class is the attribution bucket of one simulated cycle on one tier.
// Exactly one class is charged per tier per cycle, so per-tier class totals
// sum to the run's cycle count exactly.
type Class uint8

const (
	// Busy: the tier performed useful work this cycle (delivered, multiplied,
	// reduced, or moved data).
	Busy Class = iota
	// StallInput: the tier was ready but starved — an upstream tier or the
	// controller withheld work (e.g. a weight-reload barrier).
	StallInput
	// StallBandwidth: the tier waited on a bandwidth ceiling — Global Buffer
	// ports, reduction-output ports, or an in-flight DRAM prefetch.
	StallBandwidth
	// Drain: no new work exists (the schedule is exhausted) and the tier is
	// emptying its pipeline.
	Drain
	// Idle: nothing to do and nothing in flight.
	Idle

	NumClasses
)

func (c Class) String() string {
	switch c {
	case Busy:
		return "busy"
	case StallInput:
		return "stall_input"
	case StallBandwidth:
		return "stall_bandwidth"
	case Drain:
		return "drain"
	case Idle:
		return "idle"
	default:
		return "unknown"
	}
}

// Tier indices. Every run attributes cycles to all four tiers: the three
// on-chip network tiers plus the memory system (Global Buffer + DRAM).
const (
	TierDN = iota
	TierMN
	TierRN
	TierMem
	NumTiers
)

// TierNames maps tier indices to the names used in stats.Run.Breakdown and
// the exported trace tracks.
var TierNames = [NumTiers]string{"DN", "MN", "RN", "MEM"}

// DefaultSpanInterval is the phase-sampling window (in cycles) used when
// Config.SpanInterval is zero: each window becomes at most one exported
// span, labelled with the window's dominant class, which bounds the trace
// size for long runs.
const DefaultSpanInterval = 256

// Config enables and parameterizes cycle attribution for a run. A nil
// *Config on the hardware description disables tracing entirely.
type Config struct {
	// Label prefixes the run's trace track name (e.g. a sweep job id).
	Label string
	// SpanInterval is the sampling window in cycles for exported phase
	// spans; zero selects DefaultSpanInterval. Totals are always exact —
	// the interval only bounds span granularity.
	SpanInterval int
	// OnComplete receives the finished RunTrace when the run's statistics
	// are assembled. Callers aggregating traces across parallel jobs must
	// synchronize inside the callback.
	OnComplete func(*RunTrace)
	// ProgressEvery, when positive, invokes OnProgress every that-many
	// simulated cycles with the run's live metrics.
	ProgressEvery int
	OnProgress    func(Progress)
}

// Progress is one periodic live-metrics sample of a running simulation.
type Progress struct {
	Label     string
	Cycles    uint64
	Outputs   int     // completed outputs so far
	Occupancy float64 // multiplier busy fraction so far, in [0,1]
	Skipped   uint64  // cycles the kernel fast-forwarded instead of ticking
}

// Span is one contiguous stretch of cycles attributed to a single class
// (after window sampling and merging of adjacent equal-class windows).
type Span struct {
	Class Class
	Start uint64 // first cycle of the span
	Dur   uint64 // length in cycles
}

// TierTrace is the finished attribution of one tier.
type TierTrace struct {
	Name   string
	Totals [NumClasses]uint64
	Spans  []Span
}

// RunTrace is the finished attribution of one run: one track per tier.
type RunTrace struct {
	Label string
	Tiers []TierTrace
}

// Breakdown converts the per-tier totals into the stats serialization form.
func (rt *RunTrace) Breakdown() map[string]stats.CycleBreakdown {
	out := make(map[string]stats.CycleBreakdown, len(rt.Tiers))
	for _, t := range rt.Tiers {
		out[t.Name] = stats.CycleBreakdown{
			Busy:           t.Totals[Busy],
			StallInput:     t.Totals[StallInput],
			StallBandwidth: t.Totals[StallBandwidth],
			Drain:          t.Totals[Drain],
			Idle:           t.Totals[Idle],
		}
	}
	return out
}

// tierState accumulates one tier's attribution during a run.
type tierState struct {
	// Classification probes: indices into the recorder's shared delta
	// slice, checked in priority order Busy > StallBandwidth > StallInput.
	busy, stallBW, stallIn []int

	totals [NumClasses]uint64

	// Span sampling: cycles accumulate into a window of `interval` cycles;
	// a full window flushes as one span of its dominant class.
	interval uint64
	cur      uint64 // cycles attributed so far
	winStart uint64
	window   [NumClasses]uint64
	spans    []Span
}

func (t *tierState) add(cl Class, n uint64) {
	t.totals[cl] += n
	for n > 0 {
		take := t.interval - (t.cur - t.winStart)
		if take > n {
			take = n
		}
		t.window[cl] += take
		t.cur += take
		n -= take
		if t.cur-t.winStart == t.interval {
			t.flush()
		}
	}
}

// flush emits the current (possibly partial) window as a span of its
// dominant class, merging into the previous span when the class repeats.
func (t *tierState) flush() {
	dur := t.cur - t.winStart
	if dur == 0 {
		return
	}
	best, bestN := Idle, uint64(0)
	for cl := Class(0); cl < NumClasses; cl++ {
		if t.window[cl] > bestN {
			best, bestN = cl, t.window[cl]
		}
		t.window[cl] = 0
	}
	if k := len(t.spans); k > 0 && t.spans[k-1].Class == best && t.spans[k-1].Start+t.spans[k-1].Dur == t.winStart {
		t.spans[k-1].Dur += dur
	} else {
		t.spans = append(t.spans, Span{Class: best, Start: t.winStart, Dur: dur})
	}
	t.winStart = t.cur
}

// Recorder attributes cycles for one run. All methods are safe on a nil
// receiver (they do nothing), so call sites need no enabled-check; the
// kernel still makes one explicit nil check per step so a disabled run pays
// no call.
type Recorder struct {
	cfg *Config

	// Watched counters, deduplicated across tiers; last/delta are parallel.
	counters []comp.Counter
	last     []uint64
	delta    []uint64

	tiers [NumTiers]tierState
}

// NewRecorder builds a recorder over a run's counter set. The watch lists
// below are the attribution model: each tier's busy/stall probes are the
// existing activity counters whose per-cycle delta reveals what the tier
// did, so enabling tracing adds no counters and changes no simulated
// behaviour.
func NewRecorder(cs *comp.Counters, cfg *Config) *Recorder {
	r := &Recorder{cfg: cfg}
	interval := uint64(cfg.SpanInterval)
	if interval == 0 {
		interval = DefaultSpanInterval
	}
	idx := map[string]int{}
	watch := func(counterNames ...string) []int {
		out := make([]int, len(counterNames))
		for i, name := range counterNames {
			id, ok := idx[name]
			if !ok {
				id = len(r.counters)
				idx[name] = id
				r.counters = append(r.counters, cs.Counter(name))
			}
			out[i] = id
		}
		return out
	}

	// DN is busy when it moved packets; it stalls on bandwidth when its
	// injection ports back-pressure or a DRAM prefetch gates the
	// controller, and on input when a reload barrier withholds work.
	r.tiers[TierDN] = tierState{
		busy:    watch(names.DNActiveCycles),
		stallBW: watch(names.DNStallCycles, names.CtrlDRAMWaitCycles),
		stallIn: watch(names.CtrlReloadWaitCycles),
	}
	// MN is busy when multipliers fired; otherwise a DRAM wait is a
	// bandwidth stall, and upstream DN activity (or a reload) means the
	// multipliers are starved on input.
	r.tiers[TierMN] = tierState{
		busy:    watch(names.MNActiveCycles),
		stallBW: watch(names.CtrlDRAMWaitCycles),
		stallIn: watch(names.DNActiveCycles, names.DNStallCycles, names.CtrlReloadWaitCycles),
	}
	// RN is busy when adders or accumulators fired or outputs left;
	// output-port and input back-pressure are bandwidth stalls, and any
	// upstream activity without reduction work is an input stall.
	r.tiers[TierRN] = tierState{
		busy: watch(names.RNActiveCycles, names.RNAdders3to1, names.RNAddersFAN,
			names.RNAddersLRN, names.RNAccAccesses),
		stallBW: watch(names.RNOutputStalls, names.RNInputStalls),
		stallIn: watch(names.MNActiveCycles, names.DNActiveCycles, names.DNStallCycles,
			names.CtrlReloadWaitCycles, names.CtrlDRAMWaitCycles),
	}
	// MEM (Global Buffer + DRAM) is busy when any access happened; an
	// outstanding DRAM prefetch the fabric waits on is a bandwidth stall.
	r.tiers[TierMem] = tierState{
		busy: watch(names.GBReads, names.GBWrites, names.GBMetaReads,
			names.DRAMReads, names.DRAMWrites),
		stallBW: watch(names.CtrlDRAMWaitCycles),
	}
	for ti := range r.tiers {
		r.tiers[ti].interval = interval
	}
	r.last = make([]uint64, len(r.counters))
	r.delta = make([]uint64, len(r.counters))
	r.Sync()
	return r
}

// Sync re-baselines the counter snapshot without attributing anything —
// called after bulk-attributed phases (e.g. the initial DRAM fill) so their
// counter activity is not misattributed to the next ticked cycle.
func (r *Recorder) Sync() {
	if r == nil {
		return
	}
	for i, c := range r.counters {
		r.last[i] = c.Value()
	}
}

func anyPositive(delta []uint64, idx []int) bool {
	for _, i := range idx {
		if delta[i] > 0 {
			return true
		}
	}
	return false
}

// Tick attributes exactly one cycle to every tier from the counter deltas
// since the previous Tick/Sync. draining marks cycles after the schedule is
// exhausted, classifying otherwise-idle tiers as pipeline drain.
func (r *Recorder) Tick(draining bool) { r.TickN(1, draining) }

// TickN attributes n consecutive cycles at once from the counter deltas
// since the previous Tick/TickN/Sync — the fast-forward counterpart of
// Tick. Its exactness rests on the steady-state contract of the kernel's
// skip: across a skipped stretch every watched counter advances by the same
// per-cycle delta each cycle (the closed-form Advance replays n identical
// cycles), so the total delta is n times the per-cycle delta, dividing by n
// recovers exactly what each ticked call would have seen, and every skipped
// cycle classifies into the same class. tierState.add(cl, n) is in turn
// window-exact — attributing n cycles at once produces the same totals and
// spans as n single-cycle adds — so the exact-sum invariant (per-tier class
// totals equal the run's cycle count) is preserved bit-for-bit.
func (r *Recorder) TickN(n uint64, draining bool) {
	if r == nil || n == 0 {
		return
	}
	for i, c := range r.counters {
		v := c.Value()
		r.delta[i] = (v - r.last[i]) / n
		r.last[i] = v
	}
	for ti := range r.tiers {
		t := &r.tiers[ti]
		cl := Idle
		switch {
		case anyPositive(r.delta, t.busy):
			cl = Busy
		case anyPositive(r.delta, t.stallBW):
			cl = StallBandwidth
		case anyPositive(r.delta, t.stallIn):
			cl = StallInput
		case draining:
			cl = Drain
		}
		t.add(cl, n)
	}
}

// AddSpan bulk-attributes n cycles of class cl to one tier — how the
// non-pipelined compositions (systolic tiles, SNAPEA lanes) and the initial
// DRAM fill account phases whose classification is known wholesale.
func (r *Recorder) AddSpan(tier int, cl Class, n uint64) {
	if r == nil || n == 0 {
		return
	}
	r.tiers[tier].add(cl, n)
}

// AddSpanAll bulk-attributes n cycles of class cl to every tier.
func (r *Recorder) AddSpanAll(cl Class, n uint64) {
	if r == nil || n == 0 {
		return
	}
	for ti := range r.tiers {
		r.tiers[ti].add(cl, n)
	}
}

// ProgressDue reports whether a progress callback should fire at cycles.
func (r *Recorder) ProgressDue(cycles uint64) bool {
	return r != nil && r.cfg.ProgressEvery > 0 && r.cfg.OnProgress != nil &&
		cycles%uint64(r.cfg.ProgressEvery) == 0
}

// ProgressPeriod returns the configured progress-callback period in cycles,
// or zero when no periodic callback will fire. The kernel's fast-forward
// path caps skips at the next period multiple so callbacks fire at exactly
// the cycles the ticked loop would have fired them.
func (r *Recorder) ProgressPeriod() uint64 {
	if r == nil || r.cfg.ProgressEvery <= 0 || r.cfg.OnProgress == nil {
		return 0
	}
	return uint64(r.cfg.ProgressEvery)
}

// EmitProgress invokes the configured progress callback. skipped is the
// run's cumulative fast-forwarded cycle count (zero on ticked runs).
func (r *Recorder) EmitProgress(cycles uint64, outputs int, occupancy float64, skipped uint64) {
	if r == nil || r.cfg.OnProgress == nil {
		return
	}
	r.cfg.OnProgress(Progress{Label: r.cfg.Label, Cycles: cycles, Outputs: outputs, Occupancy: occupancy, Skipped: skipped})
}

// Finalize flushes partial span windows, assembles the RunTrace, and hands
// it to the OnComplete callback. label describes the run (accelerator, op,
// layer); the config's Label prefixes it.
func (r *Recorder) Finalize(label string) *RunTrace {
	if r == nil {
		return nil
	}
	if r.cfg.Label != "" {
		label = r.cfg.Label + ": " + label
	}
	rt := &RunTrace{Label: label, Tiers: make([]TierTrace, 0, NumTiers)}
	for ti := range r.tiers {
		t := &r.tiers[ti]
		t.flush()
		rt.Tiers = append(rt.Tiers, TierTrace{Name: TierNames[ti], Totals: t.totals, Spans: t.spans})
	}
	if r.cfg.OnComplete != nil {
		r.cfg.OnComplete(rt)
	}
	return rt
}
