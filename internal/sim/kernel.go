package sim

import "repro/internal/comp"

// Controller is the one seam between a pipelined composition and the cycle
// loop that runs it: the composition's memory controller, as the kernel
// sees it. Every method except Deadlock runs at tick rate and must neither
// allocate nor index a map (stonnelint's hotpathalloc roots them).
type Controller interface {
	// Control is the controller's per-clock behaviour, run before the
	// fabric ticks: it fires ready reductions and issues schedule items
	// into the distribution network.
	Control()
	// Done reports run completion; the loop exits without a final tick.
	Done() bool
	// Progress returns a value that changes whenever the run moved forward
	// (completed outputs); the watchdog resets on change.
	Progress() int
	// Waiting returns a value that changes while the run is stalled on a
	// certified external event — a granted DRAM transfer whose completion
	// time was fixed when the bank accepted it. Such a stall is forward
	// motion toward a bounded future event, not a deadlock, so the watchdog
	// also resets on change: on a multi-core chip a core's first prefetch
	// can legitimately queue behind another core's entire stage in the
	// shared banks, far longer than DeadlockWindow. A true deadlock keeps
	// both Progress and Waiting frozen; a controller with no such state
	// returns a constant.
	Waiting() uint64
	// Draining reports that the schedule source is exhausted; the cycle
	// recorder classifies the pipeline flush that follows as drain rather
	// than idle.
	Draining() bool
	// Err surfaces a fatal error. It is checked after Control and again
	// after the fabric ticks (or the skip), so an error raised mid-cycle by
	// a Tickable aborts the same cycle instead of leaking into the next —
	// or being swallowed entirely when Done flips first.
	Err() error
	// Deadlock renders the watchdog's abort diagnostic with the run's stuck
	// state. It runs once, at abort, never per tick.
	Deadlock(window uint64) error
	// Lookahead returns how many upcoming Control calls are provably no-ops
	// apart from the closed-form bookkeeping Advance(n) replays, and 0 when
	// the controller must actually run — the same contract the Tickables
	// honour. It is probed first, so a busy controller should answer 0 after
	// a few field comparisons.
	comp.Lookahead
}

// Kernel is the canonical cycle loop every pipelined composition runs: the
// controller acts, the fabric components tick once each in registration
// order — the tick ordering is the pipeline order (DN → MN → RN) — the cycle
// counter advances, and a watchdog aborts the run when nothing moved for
// DeadlockWindow cycles.
type Kernel struct {
	Ctx   *Ctx
	Ctrl  Controller
	Ticks []Tickable
}

// Run executes the cycle loop to completion (or watchdog abort). When the
// context carries a cycle recorder, every cycle is attributed per tier; a
// nil recorder costs one pointer check per step.
//
// Whenever the controller and every Tickable report a nonzero Lookahead
// bound, the loop jumps min(bounds) cycles at once, replaying counters and
// trace attribution in closed form. Fast-forward is bit-exact, not
// approximate — the jump is additionally capped so the deadlock watchdog
// and the periodic progress callback fire at exactly the cycles the ticked
// loop would have fired them, and the differential tests in internal/engine
// pin ticked and fast-forwarded runs identical in cycles, counters and
// breakdowns. Ctx.HW.DisableFastForward forces the ticked loop, the
// reference path of those tests.
func (k *Kernel) Run() error {
	c := k.Ctrl
	// A wait count that predates the run is not progress.
	w := watch{lastProgress: k.Ctx.Cycles, lastState: -1, lastWait: c.Waiting()}
	ff := !k.Ctx.HW.DisableFastForward
	for !c.Done() {
		var n uint64
		if ff {
			n = k.skipBound(w.lastProgress)
		}
		if n > 0 {
			c.Advance(n)
			for _, t := range k.Ticks {
				t.Advance(n)
			}
			k.Ctx.AccountSkipped(n)
		} else {
			c.Control()
			if err := c.Err(); err != nil {
				return err
			}
			for _, t := range k.Ticks {
				t.Cycle()
			}
			n = 1
		}
		k.Ctx.Cycles += n
		if err := c.Err(); err != nil {
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
	state := k.Ctrl.Progress()
	if state != w.lastState {
		w.lastState = state
		w.lastProgress = k.Ctx.Cycles - n + 1
	}
	// A certified-wait skip IS watchdog progress: in the stalled steady
	// state every ticked cycle advances the wait counter, so the ticked
	// loop's last reset lands on the final skipped cycle — pin exactly that.
	if wait := k.Ctrl.Waiting(); wait != w.lastWait {
		w.lastWait = wait
		w.lastProgress = k.Ctx.Cycles
	}
	if rec := k.Ctx.Rec; rec != nil {
		rec.TickN(n, k.Ctrl.Draining())
		if rec.ProgressDue(k.Ctx.Cycles) {
			rec.EmitProgress(k.Ctx.Cycles, state, k.Ctx.UtilizationSoFar(), k.Ctx.SkippedSoFar())
		}
	}
	if k.Ctx.Cycles-w.lastProgress > DeadlockWindow {
		return k.Ctrl.Deadlock(DeadlockWindow)
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
func (k *Kernel) skipBound(lastProgress uint64) uint64 {
	n := k.Ctrl.Lookahead()
	if n == 0 {
		return 0
	}
	for _, t := range k.Ticks {
		b := t.Lookahead()
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
