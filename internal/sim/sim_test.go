package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
)

// tick records the order fabric components were ticked in; it certifies no
// steady state, so the kernel ticks it every cycle.
type tick struct {
	id  int
	log *[]int
}

func (t tick) Cycle()            { *t.log = append(*t.log, t.id) }
func (t tick) Lookahead() uint64 { return 0 }
func (t tick) Advance(uint64)    {}

// testCtrl is a scriptable Controller: every nil field answers like a
// controller with nothing to report (never done, no progress, no wait, no
// error, no certified steady state, a generic deadlock diagnostic).
type testCtrl struct {
	control   func()
	done      func() bool
	progress  func() int
	waiting   func() uint64
	draining  bool
	err       func() error
	deadlock  func(window uint64) error
	lookahead func() uint64
	advance   func(n uint64)
}

// call invokes f, or answers the zero value when the script leaves it nil.
func call[T any](f func() T) (zero T) {
	if f == nil {
		return zero
	}
	return f()
}

func (c *testCtrl) Control() {
	if c.control != nil {
		c.control()
	}
}
func (c *testCtrl) Done() bool        { return call(c.done) }
func (c *testCtrl) Progress() int     { return call(c.progress) }
func (c *testCtrl) Waiting() uint64   { return call(c.waiting) }
func (c *testCtrl) Draining() bool    { return c.draining }
func (c *testCtrl) Err() error        { return call(c.err) }
func (c *testCtrl) Lookahead() uint64 { return call(c.lookahead) }
func (c *testCtrl) Advance(n uint64) {
	if c.advance != nil {
		c.advance(n)
	}
}
func (c *testCtrl) Deadlock(window uint64) error {
	if c.deadlock == nil {
		return fmt.Errorf("test: no progress for %d cycles", window)
	}
	return c.deadlock(window)
}

func testCtx() *Ctx {
	hw := config.MAERILike(16, 8)
	hw.Preloaded = true
	return NewCtx(&hw)
}

func TestKernelTickOrderAndCycleCount(t *testing.T) {
	ctx := testCtx()
	var log []int
	cycles := 0
	k := &Kernel{
		Ctx: ctx,
		Ctrl: &testCtrl{
			control:  func() { cycles++ },
			done:     func() bool { return cycles == 4 },
			progress: func() int { return cycles },
		},
		Ticks: []Tickable{tick{1, &log}, tick{2, &log}, tick{3, &log}},
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ctx.Cycles != 4 {
		t.Errorf("Cycles = %d, want 4", ctx.Cycles)
	}
	// Pipeline order within every cycle: 1, 2, 3.
	if len(log) != 12 {
		t.Fatalf("tick log has %d entries, want 12", len(log))
	}
	for i, id := range log {
		if id != i%3+1 {
			t.Fatalf("tick %d was component %d — pipeline order broken", i, id)
		}
	}
}

func TestKernelErrAborts(t *testing.T) {
	ctx := testCtx()
	boom := errors.New("controller fault")
	k := &Kernel{Ctx: ctx, Ctrl: &testCtrl{err: func() error { return boom }}}
	if err := k.Run(); !errors.Is(err, boom) {
		t.Errorf("Run() = %v, want the controller fault", err)
	}
	if ctx.Cycles != 0 {
		t.Errorf("aborted before ticking, but Cycles = %d", ctx.Cycles)
	}
}

// failingTick raises its error through the controller's Err the moment it
// is ticked — the mid-cycle fault path.
type failingTick struct {
	tick
	err  *error
	boom error
}

func (f failingTick) Cycle() { *f.err = f.boom }

// An error raised by a Tickable during the fabric ticks must abort that
// same cycle even when Done would flip true first — the late Err check.
// Before the fix, Run only consulted Err after Control, so a fault raised
// mid-cycle on the final cycle was swallowed and the run reported success.
func TestKernelErrRaisedByTickableAborts(t *testing.T) {
	ctx := testCtx()
	boom := errors.New("fabric fault")
	var tickErr error
	done := false
	k := &Kernel{
		Ctx:   ctx,
		Ticks: []Tickable{failingTick{err: &tickErr, boom: boom}},
		Ctrl: &testCtrl{
			// Done flips after the first cycle: without the post-tick Err
			// check the loop would exit cleanly and drop the error.
			done: func() bool { d := done; done = true; return d },
			err:  func() error { return tickErr },
		},
	}
	if err := k.Run(); !errors.Is(err, boom) {
		t.Errorf("Run() = %v, want the fabric fault", err)
	}
	if ctx.Cycles != 1 {
		t.Errorf("Cycles = %d, want 1 (abort in the faulting cycle)", ctx.Cycles)
	}
}

func TestKernelWatchdog(t *testing.T) {
	ctx := testCtx()
	ctrl := &testCtrl{progress: func() int { return 7 }} // constant: no progress ever
	k := &Kernel{Ctx: ctx, Ctrl: ctrl}
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "no progress") {
		t.Fatalf("watchdog did not fire: %v", err)
	}

	// The controller's Deadlock renders the diagnostic, given the window.
	k.Ctx = testCtx()
	ctrl.deadlock = func(window uint64) error {
		return fmt.Errorf("custom diagnostic after %d", window)
	}
	err = k.Run()
	if err == nil || err.Error() != fmt.Sprintf("custom diagnostic after %d", uint64(DeadlockWindow)) {
		t.Fatalf("controller diagnostic not used: %v", err)
	}
}

func TestKernelWatchdogResetsOnProgress(t *testing.T) {
	ctx := testCtx()
	n := uint64(0)
	k := &Kernel{Ctx: ctx, Ctrl: &testCtrl{
		control: func() { n++ },
		done:    func() bool { return n > DeadlockWindow+DeadlockWindow/2 },
		// Progress changes every DeadlockWindow/2 cycles — always inside
		// the window, so the watchdog must never fire.
		progress: func() int { return int(n / (DeadlockWindow / 2)) },
	}}
	if err := k.Run(); err != nil {
		t.Fatalf("watchdog fired despite periodic progress: %v", err)
	}
}

// TestKernelWaitingResetsWatchdog pins the certified-wait contract: a run
// stalled on a fixed future event (Waiting advances every cycle, Progress
// frozen) outlives the deadlock window, while a frozen Waiting value — even a
// nonzero one present before the run — is not progress and still aborts.
func TestKernelWaitingResetsOnWatchdog(t *testing.T) {
	target := uint64(DeadlockWindow + DeadlockWindow/2)
	wait := uint64(0)
	ctx := testCtx()
	k := &Kernel{Ctx: ctx, Ctrl: &testCtrl{ // Progress frozen: no outputs ever complete
		control: func() { wait++ },
		done:    func() bool { return ctx.Cycles >= target },
		waiting: func() uint64 { return wait },
	}}
	if err := k.Run(); err != nil {
		t.Fatalf("watchdog fired during an advancing certified wait: %v", err)
	}
	if ctx.Cycles != target {
		t.Errorf("Cycles = %d, want %d", ctx.Cycles, target)
	}

	// Same shape with the wait value frozen at a nonzero initial reading:
	// the watchdog must fire exactly as for a controller that never waits.
	ctx2 := testCtx()
	k = &Kernel{Ctx: ctx2, Ctrl: &testCtrl{waiting: func() uint64 { return 42 }}}
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "no progress") {
		t.Fatalf("frozen wait did not trip the watchdog: %v", err)
	}
	// The first cycle always registers once (the -1 progress sentinel), so
	// the ticked watchdog aborts at window + 2 — the frozen wait value must
	// not postpone that by a single cycle.
	if ctx2.Cycles != DeadlockWindow+2 {
		t.Errorf("frozen-wait abort at cycle %d, want %d", ctx2.Cycles, uint64(DeadlockWindow)+2)
	}
}

func TestRegisterValidation(t *testing.T) {
	expectPanic := func(name string, a Arch) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(a)
	}
	full := Arch{
		Name:     "sim-test-dup",
		Matches:  func(config.Hardware) bool { return false },
		Preset:   func(ms, bw int) config.Hardware { return config.Hardware{} },
		Build:    func(config.Hardware) (Runner, error) { return nil, nil },
		Contract: NumericContract{ExactSum: true},
	}
	Register(full)
	expectPanic("duplicate name", full)
	incomplete := full
	incomplete.Name = "sim-test-nobuild"
	incomplete.Build = nil
	expectPanic("missing builder", incomplete)
	incomplete = full
	incomplete.Name = "sim-test-nocontract"
	incomplete.Contract = NumericContract{}
	expectPanic("missing numeric contract", incomplete)

	if _, ok := Lookup("sim-test-dup"); !ok {
		t.Error("registered architecture not found by Lookup")
	}
	if _, ok := Lookup("sim-test-missing"); ok {
		t.Error("Lookup invented an architecture")
	}
}

func TestUnknownArchErrorListsNames(t *testing.T) {
	err := UnknownArchError("bogus")
	msg := err.Error()
	if !strings.Contains(msg, `"bogus"`) || !strings.Contains(msg, "available:") {
		t.Errorf("unhelpful unknown-arch error: %q", msg)
	}
	// Names() is sorted, and the error embeds that order.
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	for _, n := range names {
		if !strings.Contains(msg, n) {
			t.Errorf("error %q does not name %q", msg, n)
		}
	}
}
