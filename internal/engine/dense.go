package engine

import (
	"fmt"

	"repro/internal/comp"
	"repro/internal/comp/names"
	"repro/internal/config"
	"repro/internal/dn"
	"repro/internal/mapper"
	"repro/internal/mn"
	"repro/internal/rn"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// flexDenseRunner is the MAERI-like composition: dense controller + tree
// distribution + linear multiplier network + (accumulating) reduction tree.
type flexDenseRunner struct {
	hw config.Hardware
}

// jobSpec describes one reduction the controller expects to fire: virtual
// neuron VN will have Expect products tagged with step Seq, reducing into
// output element OutIdx; Last marks the final fold of that output.
type jobSpec struct {
	VN, Seq, Expect, OutIdx int
	Last                    bool
	// Members, when non-nil, is the snapshot of the VN's switch set at
	// schedule time — required when cluster shapes change between rounds
	// (sparse controller). Nil falls back to the configured VN table.
	Members []int
}

// workItem is one schedulable unit: a weight (re)load or one compute step.
//
// Lifetime: ReloadSet, Deliveries and Jobs are buffers the source owns and
// refills; they are valid until the next call of Next on that source, and a
// consumer that keeps an element past that point copies it by value (the
// controller copies deliveries into the DN queue and jobs into its per-VN
// queues). The slices those elements carry in turn — dn.Delivery.Dests,
// jobSpec.Members — are per-operation tables: immutable, possibly shared by
// many elements, alive as long as the operation.
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
	// Reconfig, when non-nil, reprograms the VN membership once the
	// barrier has drained the fabric (sparse rounds change cluster shapes
	// between rounds). It requires full quiescence, not just the
	// ReloadSet.
	Reconfig func() error
}

// source generates work items on demand so full-model runs never
// materialize their schedule up front. The dense GEMM, dense convolution
// and SIGMA sparse schedulers are the three sources driving flexRun.
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

	pending     [][]jobSpec // per-VN FIFO of expected reductions
	pendingJobs int
	// readsPerDest: the Benes gather fetches one GB operand per
	// destination; tree/systolic fabrics read a multicast value once.
	readsPerDest bool

	// valBuf is the reusable product-pop scratch: the RN folds offered
	// values before returning, so one buffer serves every job every cycle.
	valBuf []float32

	// Pre-resolved controller counter handles (per-cycle path).
	cReloadWait, cDramWait comp.Counter

	fatal error

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
	rkind := rn.ARTAcc
	switch hw.RN {
	case config.ARTRN:
		rkind = rn.ART
	case config.ARTAccRN:
		rkind = rn.ARTAcc
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
		marr:        mn.NewArray(hw.MSSize, hw.FIFODepth, hw.MN == config.LinearMN, ctx.Counters),
		rnet:        rn.New(rkind, hw.MSSize, hw.RNBandwidth, ctx.Counters),
		src:         o.src,
		pending:     make([][]jobSpec, numVNs),
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
	f.dnet.SetSink(f.marr.Deliver)
	f.dnet.SetProber(f.marr.CanDeliver)
	f.rnet.SetSink(f.Consume)
	if o.vns != nil {
		if err := f.marr.ConfigureVNs(o.vns); err != nil {
			return nil, err
		}
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
	// 1. Fire ready virtual neurons into the reduction network.
	for vn := range f.pending {
		q := f.pending[vn]
		if len(q) == 0 {
			continue
		}
		j := q[0]
		var ready bool
		if j.Members != nil {
			ready = f.marr.ReadyMembers(j.Members, j.Seq, j.Expect)
		} else {
			ready = f.marr.ReadyVN(vn, j.Seq, j.Expect)
		}
		if !ready || !f.rnet.CanAccept(j.Expect) {
			continue
		}
		members := j.Members
		if members == nil {
			members = f.marr.VNs()[vn]
		}
		// The RN folds Values before Offer returns, so the scratch buffer is
		// free to reuse for the next VN in the same cycle.
		f.valBuf, _ = f.marr.AppendPop(f.valBuf[:0], members, j.Seq)
		f.rnet.Offer(rn.Job{VN: vn, Seq: j.Seq, Values: f.valBuf, OutIdx: j.OutIdx, Last: j.Last})
		// Copy-down pop keeps the per-VN queue's backing array.
		nq := copy(q, q[1:])
		f.pending[vn] = q[:nq]
		f.pendingJobs--
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
			if f.cur.Reconfig != nil && (f.pendingJobs > 0 || !f.marr.Idle()) {
				f.cReloadWait.Add(1)
				return
			}
			if stall := f.DRAM.StallCycles(float64(f.Cycles)); stall > 0 {
				f.cDramWait.Add(1)
				return
			}
			if f.cur.Reconfig != nil {
				if err := f.cur.Reconfig(); err != nil {
					f.fatal = err
					return
				}
				f.cur.Reconfig = nil
			}
		}
		if f.cur.Prefetch > 0 && !f.issued {
			f.DRAM.BeginPrefetch(float64(f.Cycles), f.cur.Prefetch)
		}
		for f.curDeliv < len(f.cur.Deliveries) {
			d := f.cur.Deliveries[f.curDeliv]
			if !f.dnet.Offer(d) {
				f.issued = true
				return // DN injection queue full; resume next cycle
			}
			if !d.Forward {
				if f.readsPerDest {
					f.GB.Read(len(d.Dests))
				} else {
					f.GB.Read(1)
				}
			}
			f.curDeliv++
			f.issued = true
		}
		for _, j := range f.cur.Jobs {
			//lint:ignore hotpathalloc one append per job at work-item hand-off (amortized), and retireJobs pops by re-slicing so the backing array is reused at steady state
			f.pending[j.VN] = append(f.pending[j.VN], j)
			f.pendingJobs++
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
//     cycles stay stalled. The Reconfig arm re-checks marr.Idle here so the
//     claim is self-contained rather than leaning on the MN's own bound.
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
	if f.fatal != nil || f.pendingJobs != 0 {
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
	if f.cur.Reconfig != nil && !f.marr.Idle() {
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

func (f *flexRun) Err() error { return f.fatal }

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
	// vns is the fixed VN membership (Configuration Unit signals). Nil when
	// every job carries its own members (sparse clusters, at most one per
	// switch).
	vns      [][]int
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

// ---------------------------------------------------------------------------
// GEMM scheduler
// ---------------------------------------------------------------------------

// gemmSource emits the schedule for a dense M×N×K GEMM on the flexible
// fabric: for each row block, column panel and fold — a weight load
// followed by one compute step per column group.
type gemmSource struct {
	A, B    *tensor.Tensor
	m, n, k int
	t       mapper.GEMMTile

	panelCols int // columns per panel (accumulation-buffer bound)

	mblocks, panels, groupsPerPanel int

	// Destination tables, built once (the VN configuration fixes them for
	// the whole operation). wDests[i·KSlice+p] is where element p of
	// stationary row i lands: its TN column replicas. sDests[j·KSlice+p] is
	// where element p of streamed column j lands: rows 0..TM-1, so a tail
	// row block uses a prefix of each entry.
	wDests, sDests [][]int

	// Item buffers, refilled by every Next.
	deliv  []dn.Delivery
	jobs   []jobSpec
	reload []int

	// iteration state
	mb, panel, fold, ng int
	phase               int // 0 = weight load, 1 = stream
	seq                 int
	exhausted           bool
}

func newGEMMSource(A, B *tensor.Tensor, t mapper.GEMMTile) *gemmSource {
	m, k := A.Dim(0), A.Dim(1)
	n := B.Dim(1)
	g := &gemmSource{A: A, B: B, m: m, n: n, k: k, t: t}
	g.panelCols = sim.MaxAccEntries / t.TM
	if g.panelCols < t.TN {
		g.panelCols = t.TN
	}
	g.panelCols -= g.panelCols % t.TN
	if g.panelCols > n {
		g.panelCols = n
	}
	g.mblocks = ceilDiv(m, t.TM)
	g.panels = ceilDiv(n, g.panelCols)
	g.groupsPerPanel = ceilDiv(g.panelCols, t.TN)

	g.wDests = destTable(t.TM*t.KSlice, t.TN, func(e, j int) int { return g.ms(e/t.KSlice, j, e%t.KSlice) })
	g.sDests = destTable(t.TN*t.KSlice, t.TM, func(e, i int) int { return g.ms(i, e/t.KSlice, e%t.KSlice) })
	g.deliv = make([]dn.Delivery, max(t.TM, t.TN)*t.KSlice)
	g.jobs = make([]jobSpec, t.TM*t.TN)
	g.reload = make([]int, t.TM*t.KSlice*t.TN)
	return g
}

// destTable builds entries destination sets of width switches each over one
// backing array; every set is capped at its own length, so an append through
// one can never reach its neighbour.
func destTable(entries, width int, ms func(entry, i int) int) [][]int {
	flat := make([]int, entries*width)
	table := make([][]int, entries)
	for e := range table {
		set := flat[e*width : (e+1)*width : (e+1)*width]
		for i := range set {
			set[i] = ms(e, i)
		}
		table[e] = set
	}
	return table
}

// vns returns the VN membership: VN (i,j) = i·TN + j occupies KSlice
// consecutive switches.
func (g *gemmSource) vns() [][]int {
	return destTable(g.t.TM*g.t.TN, g.t.KSlice, func(v, p int) int { return v*g.t.KSlice + p })
}

func (g *gemmSource) ms(i, j, p int) int { return (i*g.t.TN+j)*g.t.KSlice + p }

// Next builds the next work item of the GEMM schedule into the source's
// buffers.
func (g *gemmSource) Next() (workItem, bool) {
	if g.exhausted {
		return workItem{}, false
	}
	t := g.t
	k0 := g.fold * t.KSlice
	kw := min(t.KSlice, g.k-k0)
	rows := min(t.TM, g.m-g.mb*t.TM) // valid rows of this block

	if g.phase == 0 {
		// Weight load for (mb, fold): row slices A[mi, k0:k0+kw],
		// multicast across the TN column replicas.
		nd, nr := 0, 0
		for i := 0; i < rows; i++ {
			mi := g.mb*t.TM + i
			for p := 0; p < kw; p++ {
				dests := g.wDests[i*t.KSlice+p]
				nr += copy(g.reload[nr:], dests)
				g.deliv[nd] = dn.Delivery{
					Pkt:   comp.Packet{Value: g.A.At(mi, k0+p), Kind: comp.WeightPkt},
					Dests: dests,
				}
				nd++
			}
		}
		g.phase = 1
		g.ng = 0
		return workItem{
			Barrier: true, ReloadSet: g.reload[:nr],
			// Prefetch the next fold's weights while this fold computes.
			Prefetch:   t.TM * t.KSlice,
			Deliveries: g.deliv[:nd],
		}, true
	}

	// Stream one column group.
	colBase := g.panel*g.panelCols + g.ng*t.TN
	cols := min(t.TN, g.n-colBase, (g.panel+1)*g.panelCols-colBase)
	folds := ceilDiv(g.k, t.KSlice)
	seq := g.seq
	g.seq++
	nd, nj := 0, 0
	for j := 0; j < cols; j++ {
		col := colBase + j
		for p := 0; p < kw; p++ {
			g.deliv[nd] = dn.Delivery{
				Pkt:   comp.Packet{Value: g.B.At(k0+p, col), Kind: comp.InputPkt, Seq: seq},
				Dests: g.sDests[j*t.KSlice+p][:rows:rows],
			}
			nd++
		}
		for i := 0; i < rows; i++ {
			g.jobs[nj] = jobSpec{
				VN: i*t.TN + j, Seq: seq, Expect: kw,
				OutIdx: (g.mb*t.TM+i)*g.n + col,
				Last:   g.fold == folds-1,
			}
			nj++
		}
	}

	// Advance iteration: ng → fold → panel → mb.
	g.ng++
	if g.ng >= g.groupsPerPanel || g.panel*g.panelCols+g.ng*t.TN >= g.n {
		g.ng = 0
		g.fold++
		g.phase = 0
		if g.fold >= folds {
			g.fold = 0
			g.panel++
			if g.panel >= g.panels {
				g.panel = 0
				g.mb++
				if g.mb >= g.mblocks {
					g.exhausted = true
				}
			}
		}
	}
	return workItem{Deliveries: g.deliv[:nd], Jobs: g.jobs[:nj]}, true
}

// RunGEMM simulates a dense GEMM on the tree-based flexible fabric (the
// MAERI-like composition). The controller keeps the operand with more reuse
// stationary: A rows are each reused N times and B columns M times, so when
// M > N the GEMM runs transposed (Cᵀ = Bᵀ×Aᵀ), making the execution
// input-stationary — this is how batch-1 fully-connected layers avoid a
// stationary reload per output row (the dense controller's WS/IS dataflow
// selection of Section IV-B). Configurations with ForceDataflow pin the
// choice instead.
func (r *flexDenseRunner) RunGEMM(A, B *tensor.Tensor, layer string) (*tensor.Tensor, *stats.Run, error) {
	inputStationary := A.Dim(0) > B.Dim(1)
	if r.hw.ForceDataflow {
		inputStationary = r.hw.Dataflow == config.InputStationary
	}
	if inputStationary {
		Ct, run, err := r.gemmWS(tensor.Transpose(B), tensor.Transpose(A), layer)
		if err != nil {
			return nil, nil, err
		}
		return tensor.Transpose(Ct), run, nil
	}
	return r.gemmWS(A, B, layer)
}

// gemmWS is the weight-stationary execution: A row slices stay in the
// switches while B columns stream.
func (r *flexDenseRunner) gemmWS(A, B *tensor.Tensor, layer string) (*tensor.Tensor, *stats.Run, error) {
	m, k := A.Dim(0), A.Dim(1)
	n := B.Dim(1)
	tile, err := mapper.PickGEMM(&r.hw, m, n, k)
	if err != nil {
		return nil, nil, err
	}
	src := newGEMMSource(A, B, tile)
	return runFlex(sim.NewCtx(&r.hw), flexOp{
		op: "GEMM", layer: layer, m: m, n: n, k: k,
		src: src, vns: src.vns(),
		fill: m*k + k*n, outShape: []int{m, n},
	})
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
