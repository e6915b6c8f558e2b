package engine

import (
	"fmt"
	"slices"

	"repro/internal/comp"
	"repro/internal/config"
	"repro/internal/dn"
	"repro/internal/mapper"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// flexDenseRunner is the MAERI-like composition: dense controller + tree
// distribution + linear multiplier network + (accumulating) reduction tree.
type flexDenseRunner struct {
	hw config.Hardware
}

// convSource emits the schedule for a convolution on the flexible dense
// fabric: virtual neurons span T_K parallel filters × T_Y' adjacent output
// positions, weights stay stationary across a panel of output positions,
// and the Linear MN forwarding links carry the sliding-window overlap
// between consecutive steps. A GEMM is its 1×1 convolution
// (gemmConvSource).
type convSource struct {
	in []float32 // the one image, C×X×Y
	w  []float32 // the filters, K×(C/G)×R×S
	cs tensor.ConvShape
	t  mapper.Tile

	cg, kg, xo, yo int
	folds          int

	// Output position groups: each group is one step covering TYp
	// consecutive oy positions at one ox.
	groupsPerRow, panelGroups, panels int

	forwarding bool

	// wDests[kk·VNSize+p] is where weight element p of filter kk lands: its
	// TYp position replicas.
	wDests [][]int
	// loads holds the weight-load shapes, indexed by whether the fold's
	// channel slice and the block's filter count are full (0) or the tail
	// (1), and steps the compute-step shapes, indexed the same way and by
	// whether the group's position count is full; a shape the layer never
	// reaches stays empty.
	loads [2][2]convLoad
	steps [2][2][2]convStep

	// jobs is the item buffer of the steps' reductions, refilled by every
	// step.
	jobs []jobSpec

	// iteration state
	g, mb, panel, fold, grp int
	phase                   int    // 0 = weight load, 1 = stream
	seq                     uint32 // the next step's number, modulo 2³² (see comp.Packet.Seq)
	exhausted               bool
	prevOx                  int
}

// convStep is a compute-step shape: its deliveries, built once with their
// destinations and Steiner edge counts, and for each the input element it
// carries. Which (ty, p) pairs read the same element, the order the distinct
// elements are first needed in and who receives each depend only on how
// many channels, positions and filters the step covers — not on where it
// sits in the image — so a layer has at most eight shapes and a step only
// writes each delivery's value, step number and forward flag in place.
type convStep struct {
	slots []convSlot
	deliv []dn.Delivery // deliv[i] carries slots[i]'s element
}

// convSlot is the input element at channel tc, row tr, column u of a
// step's receptive field.
type convSlot struct {
	tc, tr, u int32
	// fwd: the previous group of the same output row read this element too
	// (it lies in the TS−stride columns two adjacent windows share), so the
	// forwarding links can supply it.
	fwd bool
}

// convLoad is a weight-load shape: one delivery per (filter, member) pair
// of the block's slice, each multicast to the member's TYp position
// replicas, the weight offset each carries relative to the block's first
// weight, and the switches the load reprograms.
type convLoad struct {
	deliv  []dn.Delivery
	off    []int
	reload []int
}

// newConvSource schedules the convolution on tile t of a fabric of leaves
// switches (the tree the Steiner edge counts are taken on).
func newConvSource(in, w *tensor.Tensor, cs tensor.ConvShape, t mapper.Tile, forwarding bool, leaves int) *convSource {
	c := &convSource{
		in: in.Data(), w: w.Data(), cs: cs, t: t,
		cg: cs.C / cs.G, kg: cs.K / cs.G,
		xo: cs.OutX(), yo: cs.OutY(),
		folds:      t.Folds,
		forwarding: forwarding,
		prevOx:     -1,
	}
	c.groupsPerRow = ceilDiv(c.yo, t.TYp)
	totalGroups := c.xo * c.groupsPerRow
	c.panelGroups = sim.MaxAccEntries / (t.TK * t.TYp)
	if c.panelGroups < 1 {
		c.panelGroups = 1
	}
	if c.panelGroups > totalGroups {
		c.panelGroups = totalGroups
	}
	c.panels = ceilDiv(totalGroups, c.panelGroups)

	steiner := dn.NewSteiner(leaves)
	c.wDests = destTable(t.TK*t.VNSize, t.TYp, func(e, ty int) int { return c.ms(e/t.VNSize, ty, e%t.VNSize) })
	// Only the last group of a row and the last filter block can be short.
	for fold := 0; fold < c.folds; fold++ {
		for _, mb := range [2]int{0, c.mblocks() - 1} {
			cw, kks := c.foldChannels(fold), c.blockFilters(mb)
			if load := &c.loads[tail(cw, t.TC)][tail(kks, t.TK)]; cw > 0 && load.deliv == nil {
				*load = c.buildLoad(cw, kks, steiner)
			}
			for _, grp := range [2]int{0, c.groupsPerRow - 1} {
				tys := c.groupPositions(grp)
				if step := c.step(cw, tys, kks); cw > 0 && step.deliv == nil {
					*step = c.buildStep(cw, tys, kks, steiner)
				}
			}
		}
	}
	c.jobs = make([]jobSpec, t.TK*t.TYp)
	return c
}

// vns is the VN sizes: VN (kk, ty) = kk·TYp + ty holds VNSize switches.
func (c *convSource) vns() []int {
	sizes := make([]int, c.t.TK*c.t.TYp)
	for v := range sizes {
		sizes[v] = c.t.VNSize
	}
	return sizes
}

func (c *convSource) ms(kk, ty, p int) int { return (kk*c.t.TYp+ty)*c.t.VNSize + p }

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

// member p of a VN decodes to filter offsets (tc, tr, ts).
func (c *convSource) decode(p int) (tc, tr, ts int) {
	ts = p % c.t.TS
	tr = (p / c.t.TS) % c.t.TR
	tc = p / (c.t.TS * c.t.TR)
	return
}

func (c *convSource) mblocks() int { return ceilDiv(c.kg, c.t.TK) }

// foldChannels, groupPositions and blockFilters give the extent of one
// fold's channel slice, one group's run of output positions (grp counts
// within the row) and one block's filters. A user tile with more folds than
// the channels need makes foldChannels non-positive: those folds still issue
// their (empty) items.
func (c *convSource) foldChannels(fold int) int  { return min(c.t.TC, c.cg-fold*c.t.TC) }
func (c *convSource) groupPositions(grp int) int { return min(c.t.TYp, c.yo-grp*c.t.TYp) }
func (c *convSource) blockFilters(mb int) int    { return min(c.t.TK, c.kg-mb*c.t.TK) }

// step selects the step shape for cw channels, tys positions and kks
// filters.
func (c *convSource) step(cw, tys, kks int) *convStep {
	return &c.steps[tail(cw, c.t.TC)][tail(tys, c.t.TYp)][tail(kks, c.t.TK)]
}

// tail is the shape index of an extent: 0 when it is the tile's full
// extent, 1 when it is the short remainder.
func tail(n, full int) int {
	if n == full {
		return 0
	}
	return 1
}

// buildLoad derives the weight-load shape for cw channels and kks filters:
// the deliveries of filters kk < kks and members p < cw·TR·TS, filter by
// filter, with the weight offset of each and the switches it reloads.
func (c *convSource) buildLoad(cw, kks int, steiner *dn.Steiner) convLoad {
	t := c.t
	vw := cw * t.TR * t.TS
	ld := convLoad{
		deliv:  make([]dn.Delivery, 0, kks*vw),
		off:    make([]int, 0, kks*vw),
		reload: make([]int, 0, kks*vw*t.TYp),
	}
	for kk := 0; kk < kks; kk++ {
		for p := 0; p < vw; p++ {
			tc, tr, ts := c.decode(p)
			dests := c.wDests[kk*t.VNSize+p]
			ld.deliv = append(ld.deliv, dn.Delivery{
				Pkt:   comp.Packet{Kind: comp.WeightPkt},
				Dests: dests,
				Edges: steiner.Edges(dests),
			})
			ld.off = append(ld.off, ((kk*c.cg+tc)*c.cs.R+tr)*c.cs.S+ts)
			ld.reload = append(ld.reload, dests...)
		}
	}
	return ld
}

// buildStep derives one step shape the way a step would be scheduled from
// scratch: walk the (ty, p) members in order, give every input element its
// slot the first time it is needed, and add the member's kks filter replicas
// to that slot's destinations; then lay the destination sets out in one
// table and count each one's Steiner edges.
func (c *convSource) buildStep(cw, tys, kks int, steiner *dn.Steiner) convStep {
	t := c.t
	cols := (tys-1)*c.cs.Stride + t.TS  // columns of the step's receptive field
	slotOf := make([]int, cw*t.TR*cols) // element → 1 + its slot; 0 = not needed yet
	var st convStep
	var readers []int // slot of each (ty, p) member, in member order
	for ty := 0; ty < tys; ty++ {
		for p := 0; p < cw*t.TR*t.TS; p++ {
			tc, tr, ts := c.decode(p)
			u := ty*c.cs.Stride + ts
			e := (tc*t.TR+tr)*cols + u
			if slotOf[e] == 0 {
				st.slots = append(st.slots, convSlot{tc: int32(tc), tr: int32(tr), u: int32(u), fwd: u+c.cs.Stride < t.TS})
				slotOf[e] = len(st.slots)
			}
			readers = append(readers, slotOf[e]-1)
		}
	}
	// Each reader adds kks destinations to its slot; cut every slot's set
	// from one table, in the order the members were walked.
	start := make([]int, len(st.slots)+1)
	for _, s := range readers {
		start[s+1] += kks
	}
	for i := range st.slots {
		start[i+1] += start[i]
	}
	flat := make([]int, start[len(st.slots)])
	fill := slices.Clone(start[:len(st.slots)])
	for i, s := range readers {
		ty, p := i/(cw*t.TR*t.TS), i%(cw*t.TR*t.TS)
		for kk := 0; kk < kks; kk++ {
			flat[fill[s]] = c.ms(kk, ty, p)
			fill[s]++
		}
	}
	st.deliv = make([]dn.Delivery, len(st.slots))
	for i := range st.deliv {
		dests := flat[start[i]:start[i+1]:start[i+1]]
		st.deliv[i] = dn.Delivery{Pkt: comp.Packet{Kind: comp.InputPkt}, Dests: dests, Edges: steiner.Edges(dests)}
	}
	return st
}

// Next builds the next work item of the convolution schedule into the
// source's buffers.
func (c *convSource) Next() (workItem, bool) {
	if c.exhausted {
		return workItem{}, false
	}
	t := c.t
	cw := c.foldChannels(c.fold)
	kks := c.blockFilters(c.mb)
	// Members p < vw hold a channel of this fold (p = (tc·TR+tr)·TS+ts).
	vw := max(cw, 0) * t.TR * t.TS

	if c.phase == 0 {
		// Weight load for (g, mb, fold): each filter's slice multicast to
		// its TYp position replicas.
		var ld convLoad // a fold past the channels loads nothing
		if cw > 0 {
			ld = c.loads[tail(cw, t.TC)][tail(kks, t.TK)]
			w := c.w[((c.g*c.kg+c.mb*t.TK)*c.cg+c.fold*t.TC)*c.cs.R*c.cs.S:]
			for i, off := range ld.off {
				ld.deliv[i].Pkt.Value = w[off]
			}
		}
		c.phase = 1
		c.prevOx = -1 // a reload breaks the sliding-window reuse chain
		return workItem{
			Barrier: true, ReloadSet: ld.reload,
			Prefetch:   t.TK * t.VNSize,
			Deliveries: ld.deliv,
		}, true
	}

	// Stream one output position group.
	grpAbs := c.panel*c.panelGroups + c.grp
	ox := grpAbs / c.groupsPerRow
	grpInRow := grpAbs % c.groupsPerRow
	oyBase := grpInRow * t.TYp
	tys := c.groupPositions(grpInRow)
	seq := c.seq
	c.seq++
	sameRow := c.forwarding && c.prevOx == ox
	c.prevOx = ox

	var deliv []dn.Delivery
	nj := 0
	if vw > 0 {
		cc0 := c.g*c.cg + c.fold*t.TC
		ix0 := ox*c.cs.Stride - c.cs.Padding
		iy0 := oyBase*c.cs.Stride - c.cs.Padding
		st := c.step(cw, tys, kks)
		deliv = st.deliv
		for i := range st.slots {
			s := &st.slots[i]
			ix, iy := ix0+int(s.tr), iy0+int(s.u)
			var v float32 // padding reads as zero
			if ix >= 0 && ix < c.cs.X && iy >= 0 && iy < c.cs.Y {
				v = c.in[((cc0+int(s.tc))*c.cs.X+ix)*c.cs.Y+iy]
			}
			d := &deliv[i]
			d.Pkt.Value, d.Pkt.Seq = v, seq
			d.Forward = sameRow && s.fwd
		}
		// Every member switch with a channel of this fold latches one
		// product, so each (filter, position) VN reduces vw of them.
		for kk := 0; kk < kks; kk++ {
			kfull := c.g*c.kg + c.mb*t.TK + kk
			for ty := 0; ty < tys; ty++ {
				c.jobs[nj] = jobSpec{
					VN: int32(kk*t.TYp + ty), Seq: seq, Expect: int32(vw),
					OutIdx: (kfull*c.xo+ox)*c.yo + oyBase + ty,
					Last:   c.fold == c.folds-1,
				}
				nj++
			}
		}
	}

	// Advance: grp → fold → panel → mb → g.
	c.grp++
	if c.grp >= c.panelGroups || c.panel*c.panelGroups+c.grp >= c.xo*c.groupsPerRow {
		c.grp = 0
		c.fold++
		c.phase = 0
		if c.fold >= c.folds {
			c.fold = 0
			c.panel++
			if c.panel >= c.panels {
				c.panel = 0
				c.mb++
				if c.mb >= c.mblocks() {
					c.mb = 0
					c.g++
					if c.g >= c.cs.G {
						c.exhausted = true
					}
				}
			}
		}
	}
	return workItem{Deliveries: deliv, Jobs: c.jobs[:nj]}, true
}

// RunConv simulates a convolution on the tree-based flexible fabric with
// sliding-window forwarding, using the mapper's tile choice.
func (r *flexDenseRunner) RunConv(in, w *tensor.Tensor, cs tensor.ConvShape, layer string) (*tensor.Tensor, *stats.Run, error) {
	if cs.R*cs.S > r.hw.MSSize {
		return nil, nil, fmt.Errorf("engine: filter window %dx%d exceeds the %d-switch fabric (fold-over-window is not supported by the dense controller): %w",
			cs.R, cs.S, r.hw.MSSize, config.ErrRefused)
	}
	tile, err := mapper.PickConv(&r.hw, cs)
	if err != nil {
		return nil, nil, err
	}
	return r.RunConvTiled(in, w, cs, layer, tile)
}

// RunConvTiled runs a convolution with an explicit user-supplied tile — in
// STONNE, the tile configuration for every layer is part of the model
// modifications (Fig. 2d); the mapper only provides a default.
func (r *flexDenseRunner) RunConvTiled(in, w *tensor.Tensor, cs tensor.ConvShape, layer string, tile mapper.Tile) (*tensor.Tensor, *stats.Run, error) {
	if err := tile.Validate(cs); err != nil {
		return nil, nil, err
	}
	if in.Rank() != 4 || in.Dim(0) != cs.N || in.Dim(1) != cs.C || in.Dim(2) != cs.X || in.Dim(3) != cs.Y {
		return nil, nil, fmt.Errorf("engine: conv input %v does not match shape %+v: %w", in.Shape(), cs, config.ErrRefused)
	}
	// The schedule reads filter elements by flat index.
	if w.Rank() != 4 || w.Dim(0) != cs.K || w.Dim(1) != cs.C/cs.G || w.Dim(2) != cs.R || w.Dim(3) != cs.S {
		return nil, nil, fmt.Errorf("engine: conv filters %v do not match shape %+v: %w", w.Shape(), cs, config.ErrRefused)
	}
	if cs.N > 1 {
		// The schedule streams one image at a time (T_N == 1 is enforced
		// below): batches run back-to-back on the fabric with their cycle
		// and event counts summed.
		return r.runConvBatched(in, w, cs, layer, tile)
	}
	if tile.UsedMultipliers > r.hw.MSSize {
		return nil, nil, fmt.Errorf("engine: tile uses %d multipliers, fabric has %d: %w", tile.UsedMultipliers, r.hw.MSSize, config.ErrRefused)
	}
	// The VNs occupy NumVNs·VNSize switches whatever UsedMultipliers says.
	if tile.NumVNs > r.hw.MSSize/tile.VNSize {
		return nil, nil, fmt.Errorf("engine: tile lays out %d VNs of %d switches, fabric has %d: %w", tile.NumVNs, tile.VNSize, r.hw.MSSize, config.ErrRefused)
	}
	if tile.TG != 1 || tile.TN != 1 {
		return nil, nil, fmt.Errorf("engine: group/batch tile parallelism is not supported (T_G=%d, T_N=%d): %w", tile.TG, tile.TN, config.ErrRefused)
	}
	// Position parallelism along x is folded into the y sweep. The fold
	// costs nothing in DN slots (on the Table V 3×3 rows a step's receptive
	// field is 15 distinct values either way) but is not neutral in
	// gb.reads: x-adjacent VNs sliding in y fetch 5 new values a step,
	// y-adjacent ones 9.
	if tile.TXp > 1 {
		tile.TYp *= tile.TXp
		tile.TXp = 1
	}
	src := newConvSource(in, w, cs, tile, r.hw.MN == config.LinearMN, r.hw.MSSize)
	m, n, k := cs.GEMMDims()
	return runFlex(sim.NewCtx(&r.hw), flexOp{
		op: "CONV", layer: layer, m: m, n: n, k: k,
		src: src, vns: src.vns(),
		fill: in.Len() + w.Len(), outShape: []int{1, cs.K, src.xo, src.yo},
	})
}

// runConvBatched serializes a batched convolution into per-image runs —
// the flexible dense schedule keeps weights stationary within one image's
// position sweep, so images execute sequentially and the statistics merge
// additively.
func (r *flexDenseRunner) runConvBatched(in, w *tensor.Tensor, cs tensor.ConvShape, layer string, tile mapper.Tile) (*tensor.Tensor, *stats.Run, error) {
	xo, yo := cs.OutX(), cs.OutY()
	out := tensor.New(cs.N, cs.K, xo, yo)
	cs1 := cs
	cs1.N = 1
	inPer := cs.C * cs.X * cs.Y
	outPer := cs.K * xo * yo
	var total *stats.Run
	for n := 0; n < cs.N; n++ {
		img, err := tensor.FromSlice(in.Data()[n*inPer:(n+1)*inPer], 1, cs.C, cs.X, cs.Y)
		if err != nil {
			return nil, nil, err
		}
		bout, run, err := r.RunConvTiled(img, w, cs1, layer, tile)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: batch %d: %w", n, err)
		}
		copy(out.Data()[n*outPer:(n+1)*outPer], bout.Data())
		if total == nil {
			total = run
		} else {
			total.Merge(run)
		}
	}
	total.RecomputeUtilization(r.hw.MSSize)
	return out, total, nil
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
	src, err := gemmConvSource(A, B, tile, r.hw.MSSize)
	if err != nil {
		return nil, nil, err
	}
	return runFlex(sim.NewCtx(&r.hw), flexOp{
		op: "GEMM", layer: layer, m: m, n: n, k: k,
		src: src, vns: src.vns(),
		fill: m*k + k*n, outShape: []int{m, n},
	})
}

// gemmConvSource schedules the GEMM A×B as the 1×1 convolution
// mapper.GEMMShape: A (m×k) is its m×k×1×1 filter bank and B (k×n) its one
// k×1×n image. Reshape shares the data, so nothing is copied, and the output
// index (filter·n + position) is already the row-major m×n result. A 1×1
// window shares no column with its neighbour, so nothing is forwarded.
// leaves is the fabric size, as for newConvSource.
func gemmConvSource(A, B *tensor.Tensor, t mapper.Tile, leaves int) (*convSource, error) {
	m, k := A.Dim(0), A.Dim(1)
	n := B.Dim(1)
	w, err := A.Reshape(m, k, 1, 1)
	if err != nil {
		return nil, err
	}
	in, err := B.Reshape(1, k, 1, n)
	if err != nil {
		return nil, err
	}
	return newConvSource(in, w, mapper.GEMMShape(m, n, k), t, false, leaves), nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
