package engine

import (
	"fmt"
	"math/bits"

	"repro/internal/comp"
	"repro/internal/comp/names"
	"repro/internal/config"
	"repro/internal/dn"
	"repro/internal/mn"
	"repro/internal/rn"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// jobSpec describes one reduction the controller expects to fire: virtual
// neuron VN of stationary generation Gen will have Expect products tagged
// with step Seq, reducing into output element OutIdx; Last marks the final
// fold of that output.
type jobSpec struct {
	OutIdx     int
	VN, Expect int32
	Seq, Gen   uint32
	Last       bool
}

// jobQueue is one VN's FIFO of expected reductions: a ring holding n jobs
// from head, doubled when full and never copied down.
type jobQueue struct {
	buf     []jobSpec
	head, n int
}

func (q *jobQueue) push(j jobSpec) {
	if q.n == len(q.buf) {
		//lint:ignore hotpathalloc the ring doubles only when full, so a queue allocates O(log n) times over a run and not at all at steady state
		buf := make([]jobSpec, max(2*len(q.buf), 4))
		copy(buf[copy(buf, q.buf[q.head:]):], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = j
	q.n++
}

// front returns the oldest job; the queue must not be empty.
func (q *jobQueue) front() *jobSpec { return &q.buf[q.head] }

func (q *jobQueue) pop() {
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
}

// workItem is one schedulable unit: a weight (re)load or one compute step.
//
// Lifetime: ReloadSet, Deliveries and Jobs are buffers the source owns and
// refills; they are valid until the next call of Next on that source, and a
// consumer that keeps an element past that point copies it by value (the
// controller copies deliveries into the DN queue and jobs into its per-VN
// queues). The destination sets those deliveries carry (dn.Delivery.Dests)
// are per-operation tables: immutable, possibly shared by many elements,
// alive as long as the operation.
type workItem struct {
	// Barrier requires the switches in ReloadSet to be quiescent (operand
	// FIFOs and psum latches empty) and the DN drained before issuing —
	// the stationary registers are about to be overwritten.
	Barrier   bool
	ReloadSet []int
	// Prefetch, when non-zero, starts a DRAM prefetch of that many
	// elements for the following block (double buffering).
	Prefetch   int
	Deliveries []dn.Delivery
	Jobs       []jobSpec
}

// source generates work items on demand so full-model runs never
// materialize their schedule up front. The dense convolution scheduler (a
// GEMM is its 1×1 convolution) and the SIGMA sparse scheduler are the two
// sources driving flexRun.
type source interface {
	// Next returns the next item of the schedule, false once it is
	// exhausted. It allocates nothing: a source builds its destination
	// tables and sizes its buffers when the operation is set up, and the
	// item returned aliases them (see workItem for how long it stays valid).
	Next() (workItem, bool)
}

// flexRun drives the flexible pipeline: controller → DN → MN → RN, one
// Cycle() each per simulated clock, with back-pressure everywhere. The
// per-clock loop itself is the sim.Kernel; flexRun is its sim.Controller —
// the memory controller's behaviour plus the completion/progress probes.
type flexRun struct {
	*sim.Ctx
	dnet dn.Network
	marr *mn.Array
	rnet *rn.Net
	src  source

	// cur is the work item being issued, held by value while hasCur: its
	// slices alias the source's buffers, which stay put until Control asks
	// the source for the next item.
	cur      workItem
	hasCur   bool
	curDeliv int
	issued   bool // some deliveries of cur already offered
	srcDone  bool

	// pending[vn] is VN vn's FIFO of expected reductions; the VN is armed
	// with the step of its front job (mn.Array.Arm).
	pending []jobQueue
	// pendingVNs has bit vn set while pending[vn] is non-empty: Control
	// visits only those VNs, in ascending order.
	pendingVNs  []uint64
	pendingJobs int
	// readsPerDest: the Benes gather fetches one GB operand per
	// destination; tree/systolic fabrics read a multicast value once.
	readsPerDest bool

	// valBuf is the reusable product-pop scratch: the RN folds offered
	// values before returning, so one buffer serves every job every cycle.
	valBuf []float32

	// Pre-resolved controller counter handles (per-cycle path).
	cReloadWait, cDramWait comp.Counter

	out []float32
	// sumOut accumulates results into out (sparse controller: every
	// cluster contribution exits the RN and adds into the GB-side output);
	// otherwise results overwrite (dense: the RN accumulator already
	// folded them).
	sumOut    bool
	completed int
	expected  int
}

var _ sim.Controller = (*flexRun)(nil)

// newFlexRun builds the fabric of the configured DN/MN/RN kinds around ctx
// and sets it up for operation o: the VN programming, the per-VN job queues,
// the output buffer and the schedule.
func newFlexRun(ctx *sim.Ctx, o flexOp) (*flexRun, error) {
	hw := ctx.HW
	dnet, err := dn.New(hw.DN.String(), hw.MSSize, hw.DNBandwidth, ctx.Counters)
	if err != nil {
		return nil, err
	}
	rkind := rn.ARTAcc // config.ARTAccRN
	switch hw.RN {
	case config.ARTRN:
		rkind = rn.ART
	case config.FANRN:
		rkind = rn.FAN
	case config.LinearRN:
		rkind = rn.Linear
	}
	outLen := 1
	for _, d := range o.outShape {
		outLen *= d
	}
	numVNs := len(o.vns)
	if o.vns == nil {
		numVNs = hw.MSSize
	}
	f := &flexRun{
		Ctx:         ctx,
		dnet:        dnet,
		marr:        mn.NewArray(hw.MSSize, hw.FIFODepth, ctx.Counters),
		rnet:        rn.New(rkind, hw.MSSize, hw.RNBandwidth, ctx.Counters),
		src:         o.src,
		pending:     make([]jobQueue, numVNs),
		pendingVNs:  make([]uint64, (numVNs+63)/64),
		out:         make([]float32, outLen),
		sumOut:      o.sumOut,
		cReloadWait: ctx.Counters.Counter(names.CtrlReloadWaitCycles),
		cDramWait:   ctx.Counters.Counter(names.CtrlDRAMWaitCycles),
	}
	if !o.sumOut {
		// Summed contributions are not countable up front; completion is
		// then the drained pipeline alone.
		f.expected = outLen
	}
	f.readsPerDest = hw.DN == config.BenesDN
	f.dnet.SetSink(f.marr)
	f.rnet.SetSink(f.Consume)
	if o.vns != nil {
		if err := f.marr.ConfigureVNs(o.vns); err != nil {
			return nil, err
		}
	}
	if err := f.marr.ConfigureRounds(o.rounds); err != nil {
		return nil, err
	}
	return f, nil
}

// ticks lists the fabric in pipeline order, as the kernel clocks it after
// the controller has acted.
func (f *flexRun) ticks() []sim.Tickable { return []sim.Tickable{f.dnet, f.marr, f.rnet} }

// Consume scatters one reduced result into the output buffer and accounts
// the Global Buffer write-back (the reduction network's sink).
func (f *flexRun) Consume(r rn.Result) {
	f.GB.Write(1)
	if f.sumOut {
		f.out[r.OutIdx] += r.Value
		f.completed++
		return
	}
	if f.rnet.HasAccumulator() {
		f.out[r.OutIdx] = r.Value
		f.completed++
		return
	}
	// Without accumulators every fold's partial sum leaves through the
	// output ports; the controller re-reads it for the next fold.
	f.out[r.OutIdx] += r.Value
	if r.Last {
		f.completed++
	} else {
		f.GB.Read(1) // psum re-fetch for the next fold
	}
}

// Control is the memory controller's per-clock behaviour: fire ready
// reductions, then issue as much of the schedule as the DN accepts.
func (f *flexRun) Control() {
	// 1. Fire ready virtual neurons into the reduction network, visiting the
	// VNs with pending jobs in ascending order (the order the RN's input
	// budget is spent in).
	for wi, w := range f.pendingVNs {
		for ; w != 0; w &= w - 1 {
			vn := wi<<6 | bits.TrailingZeros64(w)
			q := &f.pending[vn]
			j := q.front()
			expect := int(j.Expect)
			if !f.marr.ReadyVN(vn, expect) || !f.rnet.CanAccept(expect) {
				continue
			}
			// The RN folds Values before Offer returns, so the scratch buffer
			// is free to reuse for the next VN in the same cycle.
			f.valBuf = f.marr.AppendPop(f.valBuf[:0], vn, j.Gen, j.Seq)
			f.rnet.Offer(rn.Job{Values: f.valBuf, OutIdx: j.OutIdx, Last: j.Last})
			q.pop()
			f.pendingJobs--
			if q.n == 0 {
				f.pendingVNs[vn>>6] &^= 1 << (vn & 63)
			} else {
				next := q.front()
				f.marr.Arm(vn, next.Gen, next.Seq)
			}
		}
	}

	// 2. Issue schedule items.
	for {
		if !f.hasCur {
			item, ok := f.src.Next()
			if !ok {
				f.srcDone = true
				return
			}
			f.cur, f.hasCur = item, true
			f.curDeliv = 0
			f.issued = false
		}
		if f.cur.Barrier && !f.issued {
			if f.dnet.Pending() > 0 || !f.marr.QuiescentSet(f.cur.ReloadSet) {
				f.cReloadWait.Add(1)
				return
			}
			if stall := f.DRAM.StallCycles(float64(f.Cycles)); stall > 0 {
				f.cDramWait.Add(1)
				return
			}
		}
		if f.cur.Prefetch > 0 && !f.issued {
			f.DRAM.BeginPrefetch(float64(f.Cycles), f.cur.Prefetch)
		}
		if rest := f.cur.Deliveries[f.curDeliv:]; len(rest) > 0 {
			f.issued = true
			n := f.dnet.OfferAll(rest)
			f.curDeliv += n
			// Every accepted value not riding the forwarding links is read
			// from the Global Buffer: once per multicast on a tree, once per
			// destination through the Benes gather.
			reads := 0
			for i := range rest[:n] {
				if d := &rest[i]; !d.Forward {
					if f.readsPerDest {
						reads += len(d.Dests)
					} else {
						reads++
					}
				}
			}
			if reads > 0 {
				f.GB.Read(reads)
			}
			if n < len(rest) {
				return // DN injection queue full; resume next cycle
			}
		}
		for _, j := range f.cur.Jobs {
			q := &f.pending[j.VN]
			q.push(j)
			f.pendingJobs++
			if q.n == 1 {
				f.pendingVNs[j.VN>>6] |= 1 << (j.VN & 63)
				f.marr.Arm(int(j.VN), j.Gen, j.Seq)
			}
		}
		f.hasCur = false
	}
}

// Lookahead is the controller's fast-forward bound. It certifies the two
// controller steady states in which Control's effect over the next n cycles
// is a closed form Advance can replay:
//
//   - Barrier DRAM stall: the head work item is a quiesced barrier gated
//     only by the in-flight prefetch. Part 1 scans empty job queues (pure,
//     pendingJobs == 0), part 2 re-checks the quiescence conditions (pure,
//     nothing in flight changes them while the fabric is idle) and hits the
//     DRAM stall — each ticked cycle is exactly cDramWait.Add(1) plus one
//     dram.stall_events count. StallLookahead bounds how many consecutive
//     cycles stay stalled.
//
//   - Exhausted source: srcDone with no held item and no pending jobs.
//     Part 1 scans empty queues and part 2 re-polls the exhausted source
//     (sources' exhausted path is pure), so Control is a no-op for any
//     horizon — the run is draining through the fabric components, whose
//     own bounds then limit the skip.
//
// Anything else — live deliveries, partially issued items, jobs awaiting
// fire — must tick.
func (f *flexRun) Lookahead() uint64 {
	if f.pendingJobs != 0 {
		return 0
	}
	if !f.hasCur {
		if f.srcDone {
			return sim.Unbounded
		}
		return 0
	}
	if !f.cur.Barrier || f.issued {
		return 0
	}
	if f.dnet.Pending() > 0 || !f.marr.QuiescentSet(f.cur.ReloadSet) {
		return 0
	}
	return f.DRAM.StallLookahead(f.Cycles)
}

// Advance replays n skipped controller cycles. In the barrier-stall steady
// state each ticked cycle would have counted one dram-wait cycle and one
// DRAM stall event; in the exhausted-source state a ticked cycle touches
// nothing.
func (f *flexRun) Advance(n uint64) {
	if !f.hasCur {
		return
	}
	f.cDramWait.Add(n)
	f.DRAM.AdvanceStall(n)
}

func (f *flexRun) Done() bool {
	return f.srcDone && !f.hasCur && f.pendingJobs == 0 &&
		f.completed >= f.expected &&
		f.dnet.Pending() == 0 && f.rnet.Drained() && f.marr.Idle()
}

func (f *flexRun) Progress() int { return f.completed }

// Waiting is the DRAM-wait count: it advances on exactly the cycles a
// barrier is held only by a granted transfer.
func (f *flexRun) Waiting() uint64 { return f.cDramWait.Value() }

func (f *flexRun) Draining() bool { return f.srcDone && !f.hasCur }

// Deadlock renders the watchdog diagnostic with the run's stuck state.
func (f *flexRun) Deadlock(window uint64) error {
	return fmt.Errorf("engine: no progress for %d cycles (completed %d/%d, pending jobs %d, dn pending %d)",
		window, f.completed, f.expected, f.pendingJobs, f.dnet.Pending())
}

// flexOp is what one operation hands runFlex: its schedule, its VN
// programming, its DRAM working set and the shape of its result record.
type flexOp struct {
	op, layer string
	m, n, k   int // GEMM-equivalent dimensions of the run record
	src       source
	// vns is the fixed VN sizes (Configuration Unit signals); rounds is
	// those of each double-buffered stationary generation instead
	// (rounds[g-1] for generation g: the sparse controller's clusters).
	vns      []int
	rounds   [][]int
	sumOut   bool // see flexRun.sumOut
	fill     int  // initial DRAM working set, in elements
	outShape []int
}

// runFlex is the one lifecycle of an operation on the flexible fabric:
// build the fabric, program the VNs, charge the initial fill, run the cycle
// kernel (the controller acts, then DN → MN → RN tick in pipeline order),
// write the outputs back and assemble the run record.
func runFlex(ctx *sim.Ctx, o flexOp) (*tensor.Tensor, *stats.Run, error) {
	f, err := newFlexRun(ctx, o)
	if err != nil {
		return nil, nil, err
	}
	ctx.InitialFill(o.fill)
	k := sim.Kernel{Ctx: ctx, Ctrl: f, Ticks: f.ticks()}
	if err := k.Run(); err != nil {
		return nil, nil, fmt.Errorf("engine: %s %s %s (%dx%dx%d): %w", ctx.HW.Name, o.op, o.layer, o.m, o.n, o.k, err)
	}
	f.marr.CollectFIFOStats()
	ctx.DRAM.WriteBack(len(f.out))
	out, err := tensor.FromSlice(f.out, o.outShape...)
	if err != nil {
		return nil, nil, err
	}
	return out, ctx.Finish(o.op, o.layer, o.m, o.n, o.k), nil
}
