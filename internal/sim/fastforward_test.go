package sim

import (
	"strings"
	"testing"

	"repro/internal/comp/names"
	"repro/internal/config"
	"repro/internal/trace"
)

// ffTick is a fabric component with a scriptable steady-state bound; the
// default (nil bound) reports Unbounded, i.e. a permanently idle component.
type ffTick struct {
	ticks    int
	advanced uint64
	bound    func() uint64
}

func (f *ffTick) Cycle() { f.ticks++ }
func (f *ffTick) Lookahead() uint64 {
	if f.bound == nil {
		return Unbounded
	}
	return f.bound()
}
func (f *ffTick) Advance(n uint64) { f.advanced += n }

// wakeKernel builds a kernel whose controller certifies idleness until the
// cycle counter reaches target — the distilled shape of a DRAM-stall wait.
func wakeKernel(ctx *Ctx, target uint64, tk *ffTick, ctrlAdvanced *uint64) *Kernel {
	return &Kernel{Ctx: ctx, Ticks: []Tickable{tk}, Ctrl: wakeCtrl(ctx, target, ctrlAdvanced)}
}

func wakeCtrl(ctx *Ctx, target uint64, ctrlAdvanced *uint64) *testCtrl {
	return &testCtrl{
		done: func() bool { return ctx.Cycles >= target },
		lookahead: func() uint64 {
			if ctx.Cycles >= target {
				return 0
			}
			return target - ctx.Cycles
		},
		advance: func(n uint64) { *ctrlAdvanced += n },
	}
}

// A fully idle wait must be jumped in one skip: no component ticks, the
// controller's Advance replays the whole window, and the cycle counter lands
// exactly on the wake-up cycle.
func TestKernelFastForwardSkipsIdleWait(t *testing.T) {
	ctx := testCtx()
	tk := &ffTick{}
	var advanced uint64
	if err := wakeKernel(ctx, 1000, tk, &advanced).Run(); err != nil {
		t.Fatal(err)
	}
	if ctx.Cycles != 1000 {
		t.Errorf("Cycles = %d, want 1000", ctx.Cycles)
	}
	if tk.ticks != 0 || tk.advanced != 1000 || advanced != 1000 {
		t.Errorf("ticks=%d component-advanced=%d ctrl-advanced=%d, want 0/1000/1000",
			tk.ticks, tk.advanced, advanced)
	}
}

// The skip length is min over all participants: a component whose next event
// is 7 cycles out must bound every jump even when the controller is idle
// forever.
func TestKernelFastForwardTakesMinBound(t *testing.T) {
	ctx := testCtx()
	tk := &ffTick{bound: func() uint64 { return 7 }}
	var advanced uint64
	ctrl := wakeCtrl(ctx, 21, &advanced)
	ctrl.lookahead = func() uint64 { return Unbounded }
	k := &Kernel{Ctx: ctx, Ticks: []Tickable{tk}, Ctrl: ctrl}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ctx.Cycles != 21 || tk.ticks != 0 || tk.advanced != 21 {
		t.Errorf("Cycles=%d ticks=%d advanced=%d, want 21/0/21", ctx.Cycles, tk.ticks, tk.advanced)
	}
	if advanced != 21 {
		t.Errorf("controller advanced %d, want 21", advanced)
	}
}

// A skip is not progress: a run that never progresses must hit the deadlock
// watchdog at exactly the same cycle whether it ticks or fast-forwards —
// the skip is capped at the watchdog deadline, never jumped past it.
func TestKernelWatchdogIdenticalAcrossSkip(t *testing.T) {
	run := func(disable bool) (uint64, error) {
		hw := config.MAERILike(16, 8)
		hw.Preloaded = true
		hw.DisableFastForward = disable
		ctx := NewCtx(&hw)
		k := &Kernel{Ctx: ctx, Ticks: []Tickable{&ffTick{}}, Ctrl: &testCtrl{
			progress:  func() int { return 7 }, // constant: no progress ever
			lookahead: func() uint64 { return Unbounded },
		}}
		// Run first, then read the counter: a multi-value return would
		// evaluate ctx.Cycles before Run executes and always yield 0.
		err := k.Run()
		return ctx.Cycles, err
	}
	tickedCycles, tickedErr := run(true)
	ffCycles, ffErr := run(false)
	if tickedErr == nil || !strings.Contains(tickedErr.Error(), "no progress") {
		t.Fatalf("ticked watchdog did not fire: %v", tickedErr)
	}
	if ffErr == nil || !strings.Contains(ffErr.Error(), "no progress") {
		t.Fatalf("fast-forward watchdog did not fire: %v", ffErr)
	}
	if tickedCycles != ffCycles {
		t.Errorf("watchdog abort cycle diverged: ticked %d, fast-forward %d", tickedCycles, ffCycles)
	}
}

// A certified wait longer than the deadlock window — the shape of a core
// whose first prefetch queues behind another core's whole stage in the
// shared banks — must complete under both the ticked and fast-forwarded
// loops, landing on the same cycle. Waiting advances once per stalled cycle
// (via Control when ticking, via Advance when skipping), exactly how the
// dense controller's dram-wait counter behaves.
func TestKernelWaitingIdenticalAcrossSkip(t *testing.T) {
	target := 2*uint64(DeadlockWindow) + 12345
	run := func(disable bool) (uint64, error) {
		hw := config.MAERILike(16, 8)
		hw.Preloaded = true
		hw.DisableFastForward = disable
		ctx := NewCtx(&hw)
		wait := uint64(0)
		ctrl := wakeCtrl(ctx, target, &wait)
		ctrl.control = func() { wait++ }
		ctrl.waiting = func() uint64 { return wait }
		k := &Kernel{Ctx: ctx, Ticks: []Tickable{&ffTick{}}, Ctrl: ctrl}
		err := k.Run()
		return ctx.Cycles, err
	}
	tickedCycles, tickedErr := run(true)
	ffCycles, ffErr := run(false)
	if tickedErr != nil {
		t.Fatalf("ticked loop aborted a certified wait: %v", tickedErr)
	}
	if ffErr != nil {
		t.Fatalf("fast-forward aborted a certified wait: %v", ffErr)
	}
	if tickedCycles != target || ffCycles != target {
		t.Errorf("completion cycle diverged: ticked %d, fast-forward %d, want %d",
			tickedCycles, ffCycles, target)
	}
}

// Skipped cycles of a draining run must land in the Drain tier of the
// breakdown (same classification the ticked loop would give them), and the
// skip total must surface through the trace.ff.skipped_cycles counter.
func TestKernelSkippedDrainAttribution(t *testing.T) {
	hw := config.MAERILike(16, 8)
	hw.Preloaded = true
	hw.Trace = &trace.Config{}
	ctx := NewCtx(&hw)
	tk := &ffTick{}
	var advanced uint64
	ctrl := wakeCtrl(ctx, 64, &advanced)
	ctrl.draining = true
	k := &Kernel{Ctx: ctx, Ticks: []Tickable{tk}, Ctrl: ctrl}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := ctx.SkippedSoFar(); got != 64 {
		t.Errorf("SkippedSoFar = %d, want 64", got)
	}
	rt := ctx.Rec.Finalize("ff drain")
	for tier, b := range rt.Breakdown() {
		if b.Drain != 64 {
			t.Errorf("%s: drain = %d, want all 64 skipped cycles (%+v)", tier, b.Drain, b)
		}
	}
	if got := ctx.Counters.Snapshot()[names.TraceFFSkippedCycles]; got != 64 {
		t.Errorf("%s = %d, want 64", names.TraceFFSkippedCycles, got)
	}
}

// Untraced runs must not grow a skip counter: the counter set stays
// byte-identical to the ticked loop's (what the dispatch-parity goldens and
// the self-check sweep compare). SkippedSoFar still counts the skip, which
// the progress hook reports on untraced runs too.
func TestKernelFastForwardUntracedCounterPurity(t *testing.T) {
	ctx := testCtx()
	tk := &ffTick{}
	var advanced uint64
	if err := wakeKernel(ctx, 100, tk, &advanced).Run(); err != nil {
		t.Fatal(err)
	}
	if ctx.Cycles != 100 || tk.ticks != 0 {
		t.Fatalf("Cycles=%d ticks=%d, want a pure 100-cycle skip", ctx.Cycles, tk.ticks)
	}
	if got := ctx.SkippedSoFar(); got != 100 {
		t.Errorf("SkippedSoFar = %d on an untraced run, want 100", got)
	}
	if _, ok := ctx.Counters.Snapshot()[names.TraceFFSkippedCycles]; ok {
		t.Errorf("untraced run grew a %s counter", names.TraceFFSkippedCycles)
	}
}

// A Tickable that certifies nothing (Lookahead 0) is ticked every cycle even
// though the controller and its neighbour certify idleness forever.
func TestKernelZeroBoundForcesTicks(t *testing.T) {
	ctx := testCtx()
	var log []int
	var advanced uint64
	ctrl := wakeCtrl(ctx, 5, &advanced)
	ctrl.lookahead = func() uint64 { return Unbounded }
	tk := &ffTick{}
	k := &Kernel{Ctx: ctx, Ticks: []Tickable{tk, tick{1, &log}}, Ctrl: ctrl}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ctx.Cycles != 5 || len(log) != 5 || tk.ticks != 5 || advanced != 0 {
		t.Errorf("Cycles=%d ticks=%d/%d advanced=%d, want a fully ticked 5-cycle run",
			ctx.Cycles, len(log), tk.ticks, advanced)
	}
}

// DisableFastForward forces the ticked loop even when every participant
// certifies idleness — the -fastforward=false reference path.
func TestKernelFastForwardDisabledByConfig(t *testing.T) {
	hw := config.MAERILike(16, 8)
	hw.Preloaded = true
	hw.DisableFastForward = true
	ctx := NewCtx(&hw)
	tk := &ffTick{}
	var advanced uint64
	if err := wakeKernel(ctx, 5, tk, &advanced).Run(); err != nil {
		t.Fatal(err)
	}
	if ctx.Cycles != 5 || tk.ticks != 5 || tk.advanced != 0 || advanced != 0 {
		t.Errorf("Cycles=%d ticks=%d component-advanced=%d ctrl-advanced=%d, want 5 ticked cycles",
			ctx.Cycles, tk.ticks, tk.advanced, advanced)
	}
}

// The progress hook must fire at exactly the same cycles, with the same
// outputs and occupancy, with and without fast-forward: skips are capped at
// the next multiple of ProgressPeriod. The wait spans several periods, so a
// skip is capped more than once.
func TestKernelFastForwardProgressEmissionParity(t *testing.T) {
	const periods = 5
	run := func(disable bool) []config.Progress {
		var fired []config.Progress
		hw := config.MAERILike(16, 8)
		hw.Preloaded = true
		hw.DisableFastForward = disable
		hw.Progress = &config.ProgressHook{Report: func(p config.Progress) { fired = append(fired, p) }}
		ctx := NewCtx(&hw)
		tk := &ffTick{}
		var advanced uint64
		if err := wakeKernel(ctx, periods*ProgressPeriod+50, tk, &advanced).Run(); err != nil {
			t.Fatal(err)
		}
		return fired
	}
	ticked := run(true)
	ff := run(false)
	if len(ticked) != periods || len(ff) != periods {
		t.Fatalf("emission count: ticked %d, fast-forward %d, want %d", len(ticked), len(ff), periods)
	}
	for i := range ticked {
		want := uint64(i+1) * ProgressPeriod
		tp, fp := ticked[i], ff[i]
		if tp.Cycles != want || fp.Cycles != want || tp.Outputs != fp.Outputs || tp.Occupancy != fp.Occupancy {
			t.Errorf("emission %d: ticked %+v, fast-forward %+v, want cycle %d", i, tp, fp, want)
		}
		// The ticked loop skips nothing; the idle wait is skipped whole.
		if tp.Skipped != 0 || fp.Skipped != want {
			t.Errorf("emission %d skipped: ticked %d, fast-forward %d, want 0/%d", i, tp.Skipped, fp.Skipped, want)
		}
	}
}

// Progress gating: the hook fires only on multiples of ProgressPeriod, on
// an untraced run, and its sample carries the run's live metrics.
func TestKernelProgressHook(t *testing.T) {
	hw := config.MAERILike(16, 8)
	hw.Preloaded = true
	var got []config.Progress
	hw.Progress = &config.ProgressHook{Report: func(p config.Progress) { got = append(got, p) }}
	ctx := NewCtx(&hw)
	if ctx.Rec != nil {
		t.Fatal("a progress hook turned cycle attribution on")
	}
	const end = 2*ProgressPeriod + 100
	k := &Kernel{Ctx: ctx, Ticks: []Tickable{&ffTick{}}, Ctrl: &testCtrl{
		done:     func() bool { return ctx.Cycles >= end },
		progress: func() int { return int(ctx.Cycles / 2) },
	}}
	ctx.Counters.Add(names.MNMults, 16*ProgressPeriod/4) // a quarter busy by the first sample
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d samples, want 2: %+v", len(got), got)
	}
	first := config.Progress{Cycles: ProgressPeriod, Outputs: ProgressPeriod / 2, Occupancy: 0.25}
	if got[0] != first || got[1].Cycles != 2*ProgressPeriod {
		t.Errorf("samples %+v, want the first %+v and the second at cycle %d", got, first, 2*ProgressPeriod)
	}
}
