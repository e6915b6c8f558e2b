package engine

import (
	"fmt"

	"repro/internal/comp"
	"repro/internal/dn"
	"repro/internal/mapper"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// convSource emits the schedule for a convolution on the flexible dense
// fabric: virtual neurons span T_K parallel filters × T_Y' adjacent output
// positions, weights stay stationary across a panel of output positions,
// and the Linear MN forwarding links carry the sliding-window overlap
// between consecutive steps.
type convSource struct {
	in []float32 // the one image, C×X×Y
	w  *tensor.Tensor
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
	// steps holds the compute-step shapes, indexed by whether the fold's
	// channel slice, the group's position count and the block's filter
	// count are full (0) or the tail (1); a shape the layer never reaches
	// stays nil.
	steps [2][2][2][]convSlot

	// Item buffers, refilled by every Next.
	deliv  []dn.Delivery
	jobs   []jobSpec
	reload []int

	// iteration state
	g, mb, panel, fold, grp int
	phase                   int // 0 = weight load, 1 = stream
	seq                     int
	exhausted               bool
	prevOx                  int
}

// convSlot is one delivery of a compute-step shape: the input element at
// channel tc, row tr, column u of the step's receptive field, and every
// switch that multiplies by it. Which (ty, p) pairs read the same element,
// the order the distinct elements are first needed in and who receives each
// depend only on how many channels, positions and filters the step covers —
// not on where it sits in the image — so a layer has at most eight shapes
// and a step only fills in values.
type convSlot struct {
	tc, tr, u int
	// fwd: the previous group of the same output row read this element too
	// (it lies in the TS−stride columns two adjacent windows share), so the
	// forwarding links can supply it.
	fwd   bool
	dests []int
}

func newConvSource(in, w *tensor.Tensor, cs tensor.ConvShape, t mapper.Tile, forwarding bool) *convSource {
	c := &convSource{
		in: in.Data(), w: w, cs: cs, t: t,
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

	c.wDests = destTable(t.TK*t.VNSize, t.TYp, func(e, ty int) int { return c.ms(e/t.VNSize, ty, e%t.VNSize) })
	// Only the last group of a row and the last filter block can be short.
	for fold := 0; fold < c.folds; fold++ {
		for _, grp := range [2]int{0, c.groupsPerRow - 1} {
			for _, mb := range [2]int{0, c.mblocks() - 1} {
				cw, tys, kks := c.foldChannels(fold), c.groupPositions(grp), c.blockFilters(mb)
				if shape := c.shape(cw, tys, kks); cw > 0 && *shape == nil {
					*shape = c.buildShape(cw, tys, kks)
				}
			}
		}
	}
	c.deliv = make([]dn.Delivery, max(t.TK, t.TYp)*t.VNSize)
	c.jobs = make([]jobSpec, t.TK*t.TYp)
	c.reload = make([]int, t.TK*t.VNSize*t.TYp)
	return c
}

// vns lays VN (kk, ty) = kk·TYp + ty over consecutive switch ranges.
func (c *convSource) vns() [][]int {
	return destTable(c.t.TK*c.t.TYp, c.t.VNSize, func(v, p int) int { return v*c.t.VNSize + p })
}

func (c *convSource) ms(kk, ty, p int) int { return (kk*c.t.TYp+ty)*c.t.VNSize + p }

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

// shape selects the step shape for cw channels, tys positions and kks
// filters.
func (c *convSource) shape(cw, tys, kks int) *[]convSlot {
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

// buildShape derives one step shape the way a step would be scheduled from
// scratch: walk the (ty, p) members in order, give every input element its
// slot the first time it is needed, and add the member's kks filter replicas
// to that slot's destinations.
func (c *convSource) buildShape(cw, tys, kks int) []convSlot {
	t := c.t
	cols := (tys-1)*c.cs.Stride + t.TS  // columns of the step's receptive field
	slotOf := make([]int, cw*t.TR*cols) // element → 1 + its slot; 0 = not needed yet
	var slots []convSlot
	for ty := 0; ty < tys; ty++ {
		for p := 0; p < cw*t.TR*t.TS; p++ {
			tc, tr, ts := c.decode(p)
			u := ty*c.cs.Stride + ts
			e := (tc*t.TR+tr)*cols + u
			if slotOf[e] == 0 {
				slots = append(slots, convSlot{tc: tc, tr: tr, u: u, fwd: u+c.cs.Stride < t.TS})
				slotOf[e] = len(slots)
			}
			s := &slots[slotOf[e]-1]
			for kk := 0; kk < kks; kk++ {
				s.dests = append(s.dests, c.ms(kk, ty, p))
			}
		}
	}
	return slots
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
		nd, nr := 0, 0
		for kk := 0; kk < kks; kk++ {
			kfull := c.g*c.kg + c.mb*t.TK + kk
			for p := 0; p < vw; p++ {
				tc, tr, ts := c.decode(p)
				dests := c.wDests[kk*t.VNSize+p]
				nr += copy(c.reload[nr:], dests)
				c.deliv[nd] = dn.Delivery{
					Pkt: comp.Packet{
						Value: c.w.At(kfull, c.fold*t.TC+tc, tr, ts),
						Kind:  comp.WeightPkt,
					},
					Dests: dests,
				}
				nd++
			}
		}
		c.phase = 1
		c.prevOx = -1 // a reload breaks the sliding-window reuse chain
		return workItem{
			Barrier: true, ReloadSet: c.reload[:nr],
			Prefetch:   t.TK * t.VNSize,
			Deliveries: c.deliv[:nd],
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

	nd, nj := 0, 0
	if vw > 0 {
		cc0 := c.g*c.cg + c.fold*t.TC
		ix0 := ox*c.cs.Stride - c.cs.Padding
		iy0 := oyBase*c.cs.Stride - c.cs.Padding
		slots := *c.shape(cw, tys, kks)
		for i := range slots {
			s := &slots[i]
			ix, iy := ix0+s.tr, iy0+s.u
			var v float32 // padding reads as zero
			if ix >= 0 && ix < c.cs.X && iy >= 0 && iy < c.cs.Y {
				v = c.in[((cc0+s.tc)*c.cs.X+ix)*c.cs.Y+iy]
			}
			c.deliv[nd] = dn.Delivery{
				Pkt:     comp.Packet{Value: v, Kind: comp.InputPkt, Seq: seq},
				Dests:   s.dests,
				Forward: sameRow && s.fwd,
			}
			nd++
		}
		// Every member switch with a channel of this fold latches one
		// product, so each (filter, position) VN reduces vw of them.
		for kk := 0; kk < kks; kk++ {
			kfull := c.g*c.kg + c.mb*t.TK + kk
			for ty := 0; ty < tys; ty++ {
				c.jobs[nj] = jobSpec{
					VN: kk*t.TYp + ty, Seq: seq, Expect: vw,
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
	return workItem{Deliveries: c.deliv[:nd], Jobs: c.jobs[:nj]}, true
}

// RunConv simulates a convolution on the tree-based flexible fabric with
// sliding-window forwarding, using the mapper's tile choice.
func (r *flexDenseRunner) RunConv(in, w *tensor.Tensor, cs tensor.ConvShape, layer string) (*tensor.Tensor, *stats.Run, error) {
	if cs.R*cs.S > r.hw.MSSize {
		return nil, nil, fmt.Errorf("engine: filter window %dx%d exceeds the %d-switch fabric (fold-over-window is not supported by the dense controller)",
			cs.R, cs.S, r.hw.MSSize)
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
	if err := cs.Validate(); err != nil {
		return nil, nil, err
	}
	if err := tile.Validate(cs); err != nil {
		return nil, nil, err
	}
	if in.Rank() != 4 || in.Dim(0) != cs.N || in.Dim(1) != cs.C || in.Dim(2) != cs.X || in.Dim(3) != cs.Y {
		return nil, nil, fmt.Errorf("engine: conv input %v does not match shape %+v", in.Shape(), cs)
	}
	if cs.N > 1 {
		// The schedule streams one image at a time (T_N == 1 is enforced
		// below): batches run back-to-back on the fabric with their cycle
		// and event counts summed.
		return r.runConvBatched(in, w, cs, layer, tile)
	}
	if tile.UsedMultipliers > r.hw.MSSize {
		return nil, nil, fmt.Errorf("engine: tile uses %d multipliers, fabric has %d", tile.UsedMultipliers, r.hw.MSSize)
	}
	if tile.TG != 1 || tile.TN != 1 {
		return nil, nil, fmt.Errorf("engine: group/batch tile parallelism is not supported (T_G=%d, T_N=%d)", tile.TG, tile.TN)
	}
	// Position parallelism along x is folded into the y sweep — the two
	// are symmetric for the delivery and reuse pattern.
	if tile.TXp > 1 {
		tile.TYp *= tile.TXp
		tile.TXp = 1
	}
	src := newConvSource(in, w, cs, tile, r.hw.MN.String() == "LMN")
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
