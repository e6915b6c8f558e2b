package sim

import "fmt"

// Kernel is the canonical cycle loop every pipelined composition runs: the
// controller acts, the fabric components tick once each in pipeline order,
// the cycle counter advances, and a watchdog aborts the run when no
// observable progress is made for DeadlockWindow cycles.
//
// The hooks keep the kernel architecture-agnostic:
//
//   - Control is the memory controller's per-clock behaviour, run before
//     the fabric ticks (it fires ready reductions and issues schedule
//     items into the distribution network).
//   - Ticks are the fabric components, ticked in registration order —
//     the tick ordering is the pipeline order (DN → MN → RN).
//   - Done reports run completion; the loop exits without a final tick.
//   - Progress returns a value that changes whenever the run moved forward
//     (completed outputs); the watchdog resets on change.
//   - Waiting optionally returns a value that changes while the run is
//     stalled on a certified external event — a granted DRAM transfer whose
//     completion time was fixed when the bank accepted it. Such a stall is
//     forward motion toward a bounded future event, not a deadlock, so the
//     watchdog also resets on change. On a multi-core chip a core's first
//     prefetch can legitimately queue behind another core's entire stage in
//     the shared banks, stalling far longer than DeadlockWindow; without
//     this signal the watchdog would abort that run. A true deadlock keeps
//     both Progress and Waiting frozen. Nil means the controller has no
//     such states.
//   - Err surfaces a fatal error; it is checked after Control and again
//     after the fabric ticks, so an error raised mid-cycle by a Tickable
//     aborts the same cycle instead of leaking into the next (or being
//     swallowed entirely when Done flips first).
//   - Draining optionally reports that the schedule source is exhausted;
//     the cycle recorder uses it to classify end-of-run pipeline flushing
//     as drain rather than idle. Nil means never draining.
//   - Deadlock renders the abort diagnostic; nil falls back to a generic
//     message.
//   - Lookahead / Advance are the controller's fast-forward capability,
//     mirroring the component-side Lookahead interface: Lookahead returns
//     how many upcoming Control calls are provably no-ops apart from the
//     closed-form bookkeeping Advance replays, and 0 when the controller
//     must actually run. Nil disables fast-forward for the run.
type Kernel struct {
	Ctx      *Ctx
	Control  func()
	Ticks    []Tickable
	Done     func() bool
	Progress func() int
	Waiting  func() uint64
	Err      func() error
	Draining func() bool
	Deadlock func(window uint64) error

	Lookahead func() uint64
	Advance   func(n uint64)
}

// Run executes the cycle loop to completion (or watchdog abort). When the
// context carries a cycle recorder, every cycle is attributed per tier; a
// nil recorder costs one pointer check per step.
//
// When the controller provides Lookahead/Advance and every Tickable also
// implements the Lookahead capability, the loop fast-forwards: whenever all
// participants report a nonzero steady-state bound, it jumps min(bounds)
// cycles at once, replaying counters and trace attribution in closed form.
// Fast-forward is bit-exact, not approximate — the jump is additionally
// capped so the deadlock watchdog and the periodic progress callback fire
// at exactly the cycles the ticked loop would have fired them, and the
// differential tests in internal/engine pin ticked and fast-forwarded runs
// identical in cycles, counters and breakdowns. Ctx.HW.DisableFastForward
// forces the ticked loop as a validation escape hatch.
func (k *Kernel) Run() error {
	w := watch{lastProgress: k.Ctx.Cycles, lastState: -1}
	if k.Waiting != nil {
		w.lastWait = k.Waiting() // a pre-existing wait count is not progress
	}
	// Fast-forward participation is decided once per run: the controller
	// must expose the capability, every fabric component must implement it,
	// and the configuration must not opt out. A nil las means "always tick".
	var las []Lookahead
	if k.Lookahead != nil && k.Advance != nil && !k.Ctx.HW.DisableFastForward {
		las = make([]Lookahead, 0, len(k.Ticks))
		for _, t := range k.Ticks {
			la, ok := t.(Lookahead)
			if !ok {
				las = nil
				break
			}
			las = append(las, la)
		}
	}
	for !k.Done() {
		var n uint64
		if las != nil {
			n = k.skipBound(las, w.lastProgress)
		}
		if n > 0 {
			k.Advance(n)
			for _, la := range las {
				la.Advance(n)
			}
			k.Ctx.AccountSkipped(n)
		} else {
			k.Control()
			if err := k.Err(); err != nil {
				return err
			}
			for _, t := range k.Ticks {
				t.Cycle()
			}
			n = 1
		}
		k.Ctx.Cycles += n
		if err := k.Err(); err != nil {
			return err
		}
		if err := k.observe(&w, n); err != nil {
			return err
		}
	}
	return nil
}

// watch is what the loop remembers between steps to feed the watchdog.
type watch struct {
	lastProgress uint64 // cycle of the latest forward motion
	lastState    int    // Progress() at that cycle
	lastWait     uint64 // Waiting() at its latest change
}

// observe is the bookkeeping after a step of n cycles has been applied and
// Ctx.Cycles advanced: a tick is the n == 1 case of a skip. It resets the
// watchdog on forward motion, attributes the step to the recorder, emits
// due progress and aborts a run that stopped moving.
func (k *Kernel) observe(w *watch, n uint64) error {
	// A skip is never progress: the steady-state certificate guarantees
	// Progress() is unchanged across it, so the watchdog keeps counting —
	// exactly as in the ticked loop. Only the first-ever iteration can still
	// observe a change after a skip (the -1 sentinel); the ticked loop would
	// have recorded it at the window's first cycle, so pin exactly that
	// (which for a tick is the cycle just completed).
	state := k.Progress()
	if state != w.lastState {
		w.lastState = state
		w.lastProgress = k.Ctx.Cycles - n + 1
	}
	// A certified-wait skip IS watchdog progress: in the stalled steady
	// state every ticked cycle advances the wait counter, so the ticked
	// loop's last reset lands on the final skipped cycle — pin exactly that.
	if k.Waiting != nil {
		if wait := k.Waiting(); wait != w.lastWait {
			w.lastWait = wait
			w.lastProgress = k.Ctx.Cycles
		}
	}
	if rec := k.Ctx.Rec; rec != nil {
		rec.TickN(n, k.Draining != nil && k.Draining())
		if rec.ProgressDue(k.Ctx.Cycles) {
			rec.EmitProgress(k.Ctx.Cycles, state, k.Ctx.UtilizationSoFar(), k.Ctx.SkippedSoFar())
		}
	}
	if k.Ctx.Cycles-w.lastProgress > DeadlockWindow {
		if k.Deadlock != nil {
			return k.Deadlock(DeadlockWindow)
		}
		return fmt.Errorf("sim: no progress for %d cycles", uint64(DeadlockWindow))
	}
	return nil
}

// skipBound computes how many cycles may be fast-forwarded right now: the
// minimum of the controller's and every component's steady-state bound,
// additionally capped so two ticked-loop observation points land on exactly
// the cycles they would have landed on without the skip:
//
//   - the deadlock watchdog aborts after its check at cycle
//     lastProgress + DeadlockWindow + 1, so a skip never jumps past that
//     cycle (and the post-skip check fires there, identically);
//   - the periodic progress callback fires at every multiple of the
//     configured period, so a skip never jumps past the next multiple.
//
// The controller bound is probed first: in busy states it returns 0 after a
// few field comparisons, keeping the fast-forward probe cheap on runs that
// never skip.
func (k *Kernel) skipBound(las []Lookahead, lastProgress uint64) uint64 {
	n := k.Lookahead()
	if n == 0 {
		return 0
	}
	for _, la := range las {
		b := la.Lookahead()
		if b == 0 {
			return 0
		}
		if b < n {
			n = b
		}
	}
	if dead := lastProgress + DeadlockWindow + 1 - k.Ctx.Cycles; n > dead {
		n = dead
	}
	if every := k.Ctx.Rec.ProgressPeriod(); every > 0 {
		if due := every - k.Ctx.Cycles%every; n > due {
			n = due
		}
	}
	return n
}
