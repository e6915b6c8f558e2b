package mem

import (
	"fmt"

	"repro/internal/comp"
	"repro/internal/comp/names"
	"repro/internal/config"
)

// DefaultBanks is the shared DRAM bank count a chip uses when the
// configuration does not say otherwise.
const DefaultBanks = 8

// SharedDRAM is the chip-level shared memory system: B banks behind a
// link, serving every core's transfers through per-bank queues with a
// round-robin bank grant. It keeps the first-order stance of the private
// DRAM model — transfers are transactions with closed-form durations, not
// per-beat traffic — and adds exactly one new effect: transfers from
// different cores contend.
//
// A transfer's duration is the one timing value both models are built on,
// so an uncontended transfer costs exactly what the private model charges.
// It occupies the granted bank for that whole duration; transfers on
// different banks overlap fully, the banked-DRAM shape (HBM
// pseudo-channels): aggregate chip bandwidth scales with the bank count,
// and contention appears as queueing when in-flight transfers outnumber
// banks (or collide on one under round-robin).
//
// A transfer's completion time is fixed at Serve time and never
// retroactively changed — later arrivals only ever queue behind earlier
// grants. That is the property the kernel's fast-forward relies on: a
// core's StallLookahead bound (the next interconnect event it waits on)
// stays exact no matter what other cores do afterwards.
//
// SharedDRAM is not safe for concurrent use: the chip scheduler runs ops
// sequentially in deterministic event order, which is also what makes
// N-core runs bit-identical across repeats.
type SharedDRAM struct {
	timing

	bankFree []float64 // chip cycle each bank is next free
	next     int       // round-robin bank grant cursor
}

// NewSharedDRAM builds the shared memory system from the chip's DRAM
// parameters, which must have passed config.Hardware.Validate. banks <= 0
// uses DefaultBanks; linkGBs <= 0 keeps the configured modules, matching
// what a private DRAM would deliver, and a positive linkGBs replaces them
// with one link of that bandwidth (config.Hardware.DRAMLink: the link passes
// Validate, rate floor included).
func NewSharedDRAM(h *config.Hardware, banks int, linkGBs float64) (*SharedDRAM, error) {
	if banks <= 0 {
		banks = DefaultBanks
	}
	link, err := h.DRAMLink(linkGBs)
	if err != nil {
		return nil, fmt.Errorf("mem: shared DRAM link of %g GB/s: %w", linkGBs, err)
	}
	return &SharedDRAM{timing: newTiming(&link), bankFree: make([]float64, banks)}, nil
}

// Banks returns the configured bank count.
func (s *SharedDRAM) Banks() int { return len(s.bankFree) }

// Serve grants a transfer of n elements issued at chip cycle `issue` to
// the next bank in round-robin order, queueing behind whatever that bank is
// already serving. It returns the grant and completion cycles; wait time is
// start-issue, and completion-start is exactly the private model's
// uncontended cost.
func (s *SharedDRAM) Serve(issue float64, n int) (start, completion float64) {
	if n <= 0 {
		return issue, issue
	}
	b := s.next
	s.next++
	if s.next == len(s.bankFree) {
		s.next = 0
	}
	start = issue
	if s.bankFree[b] > start {
		start = s.bankFree[b]
	}
	completion = start + s.cost(n)
	s.bankFree[b] = completion
	return start, completion
}

// CorePort is one core's view of a SharedDRAM: it implements Port (so the
// engine compositions drive it exactly as they drive a private DRAM) and
// config.MemPortSource (so sim.NewCtx can rebind it to each op's private
// counter set). The port owns the translation between a run's op-local
// clock and the chip clock: StartOp pins the chip cycle at which the
// current op's cycle zero sits, and every transfer is issued in chip time,
// so contention with other cores lands in the op's observed stalls — the
// consumer side (the embedded window) never sees the difference.
type CorePort struct {
	window
	shared *SharedDRAM

	base      float64 // chip cycle of the current op's cycle zero
	selfReady float64 // chip cycle the core's last transfer completes

	// Cumulative true busy/wait chip time and the integer cycles already
	// emitted to the icn.* counters. Each transfer emits floor(cum)-emitted,
	// carrying the fractional remainder to the next one (the same scheme the
	// trace tiers use), so the counted busy+wait can never drift above the
	// true completion-issue span the way independent per-transfer rounding
	// did.
	busyAcc, waitAcc         float64
	busyEmitted, waitEmitted uint64

	cICNReq, cICNBusy, cICNWait comp.Counter
}

// NewCorePort builds one core's port into the shared memory system.
func NewCorePort(s *SharedDRAM) *CorePort {
	return &CorePort{shared: s}
}

// StartOp pins the chip cycle at which the next op's cycle zero sits and
// resets the op-local prefetch horizon. The chip scheduler calls it once
// per scheduled stage, before the core's kernel starts ticking.
func (p *CorePort) StartOp(base float64) {
	p.base = base
	p.prefetchReady = 0
}

// Port rebinds the port to a fresh run's counter set and returns itself —
// the config.MemPortSource hook sim.NewCtx calls exactly once per op. A
// new op's local clock restarts at zero, so the port re-bases its chip
// mapping the way the private model does (a fresh DRAM per Ctx): the
// prefetch horizon resets, and op cycle zero maps to the core's current
// memory horizon — the furthest of the stage's start and the core's last
// transfer completion. For compute-bound stages that is earlier than the
// true op start, a deliberate first-order simplification: transfers stay
// correctly ordered per core (selfReady serializes them) and contention
// stays deterministic; only the cross-core interleaving is approximate.
func (p *CorePort) Port(c *comp.Counters) config.MemPort {
	if p.selfReady > p.base {
		p.base = p.selfReady
	}
	p.bind(c)
	p.cICNReq = c.Counter(names.ICNRequests)
	p.cICNBusy = c.Counter(names.ICNBusyCycles)
	p.cICNWait = c.Counter(names.ICNWaitCycles)
	return p
}

// transfer issues n elements at chip cycle `issue` (no earlier than the
// core's previous transfer — a core's own requests serialize, exactly as
// the private model's prefetchReady chain does) and returns the chip cycle
// the data lands.
func (p *CorePort) transfer(issue float64, n int) float64 {
	if p.selfReady > issue {
		issue = p.selfReady
	}
	start, completion := p.shared.Serve(issue, n)
	p.selfReady = completion
	p.charge(n, p.shared.rows(n))
	p.cICNReq.Add(1)
	p.busyAcc += completion - start
	p.waitAcc += start - issue
	if d := uint64(p.busyAcc) - p.busyEmitted; d > 0 {
		p.cICNBusy.Add(d)
		p.busyEmitted += d
	}
	if d := uint64(p.waitAcc) - p.waitEmitted; d > 0 {
		p.cICNWait.Add(d)
		p.waitEmitted += d
	}
	return completion
}

// FetchCycles streams n elements as a blocking fetch issued at the op's
// current prefetch horizon and returns the op-local cycles until the data
// lands — the private model's duration plus any contention wait.
func (p *CorePort) FetchCycles(n int) float64 {
	if n <= 0 {
		return 0
	}
	issue := p.base + p.prefetchReady
	return p.transfer(issue, n) - issue
}

// BeginPrefetch starts a double-buffered transfer of n elements at
// op-local cycle `now`, mirroring the private model's serialization of
// successive prefetches and adding shared-link/bank contention on top; the
// contention is folded into prefetchReady, so the window reports it as
// ordinary stall.
func (p *CorePort) BeginPrefetch(now float64, n int) {
	p.prefetchReady = p.transfer(p.base+max(now, p.prefetchReady), n) - p.base
}

// Handoff streams n activation elements through the shared system at chip
// cycle `now` — the producer-to-consumer transfer of a cross-core stage
// boundary — and returns the chip cycle the consuming core may start.
func (p *CorePort) Handoff(now float64, n int) float64 {
	_, completion := p.shared.Serve(now, n)
	return completion
}
