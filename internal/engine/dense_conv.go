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
	in, w *tensor.Tensor
	cs    tensor.ConvShape
	t     mapper.Tile

	cg, kg, xo, yo int
	folds          int

	// Output position groups: each group is one step covering TYp
	// consecutive oy positions at one ox.
	groupsPerRow, panelGroups, panels int

	// iteration state
	g, mb, panel, fold, grp int
	phase                   int // 0 = weight load, 1 = stream
	seq                     int
	exhausted               bool

	prevOx     int
	forwarding bool

	// Stamp-based coordinate dedup (allocation-free hot path): seen[idx]
	// holds the generation (seq+1) a coordinate was last needed in;
	// slot[idx] its delivery index within the current step. A coordinate
	// whose stamp equals the previous step's generation was just
	// delivered and can ride the forwarding links.
	seen   []uint32
	slot   []int32
	coordW int // padded row width (Y + 2·padding)
	coordH int // padded column count (X + 2·padding)
}

func newConvSource(in, w *tensor.Tensor, cs tensor.ConvShape, t mapper.Tile, forwarding bool) *convSource {
	c := &convSource{
		in: in, w: w, cs: cs, t: t,
		cg: cs.C / cs.G, kg: cs.K / cs.G,
		xo: cs.OutX(), yo: cs.OutY(),
		folds:      t.Folds,
		forwarding: forwarding,
		prevOx:     -1,
		coordH:     cs.X + 2*cs.Padding,
		coordW:     cs.Y + 2*cs.Padding,
	}
	cells := cs.C * c.coordH * c.coordW
	c.seen = make([]uint32, cells)
	c.slot = make([]int32, cells)
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
	return c
}

// vns lays VN (kk, ty) = kk·TYp + ty over consecutive switch ranges.
func (c *convSource) vns() [][]int {
	vns := make([][]int, c.t.TK*c.t.TYp)
	for v := range vns {
		members := make([]int, c.t.VNSize)
		for p := range members {
			members[p] = v*c.t.VNSize + p
		}
		vns[v] = members
	}
	return vns
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

// Next builds the next work item of the convolution schedule; like the
// GEMM source, the per-item delivery-list allocations are amortized over
// the many cycles the item keeps the fabric busy.
//
//lint:ignore hotpathalloc work-item construction is amortized over the many cycles the item occupies the fabric
func (c *convSource) Next() (workItem, bool) {
	if c.exhausted {
		return workItem{}, false
	}
	t := c.t
	cw := min(t.TC, c.cg-c.fold*t.TC) // channels in this fold

	if c.phase == 0 {
		// Weight load for (g, mb, fold): each filter's slice multicast to
		// its TYp position replicas.
		item := workItem{Barrier: true}
		for kk := 0; kk < t.TK; kk++ {
			kfull := c.g*c.kg + c.mb*t.TK + kk
			if c.mb*t.TK+kk >= c.kg {
				continue
			}
			for p := 0; p < t.VNSize; p++ {
				tc, tr, ts := c.decode(p)
				if tc >= cw {
					continue
				}
				dests := make([]int, 0, t.TYp)
				for ty := 0; ty < t.TYp; ty++ {
					dests = append(dests, c.ms(kk, ty, p))
				}
				item.ReloadSet = append(item.ReloadSet, dests...)
				item.Deliveries = append(item.Deliveries, dn.Delivery{
					Pkt: comp.Packet{
						Value: c.w.At(kfull, c.fold*t.TC+tc, tr, ts),
						Kind:  comp.WeightPkt,
					},
					Dests: dests,
				})
			}
		}
		item.Prefetch = t.TK * t.VNSize
		c.phase = 1
		c.prevOx = -1 // a reload breaks the sliding-window reuse chain
		return item, true
	}

	// Stream one output position group.
	grpAbs := c.panel*c.panelGroups + c.grp
	ox := grpAbs / c.groupsPerRow
	oyBase := (grpAbs % c.groupsPerRow) * t.TYp

	item := workItem{}
	seq := c.seq
	c.seq++

	// Group needed elements by coordinate for multicast, preserving a
	// deterministic order. The stamp arrays make the dedup allocation-free
	// (this loop runs once per compute step, dominating full-model runs).
	curGen := uint32(seq) + 1
	prevGen := curGen - 1
	sameRow := c.forwarding && c.prevOx == ox
	expect := make([]int, t.TK*t.TYp)

	for ty := 0; ty < t.TYp; ty++ {
		oy := oyBase + ty
		if oy >= c.yo {
			continue
		}
		for p := 0; p < t.VNSize; p++ {
			tc, tr, ts := c.decode(p)
			if tc >= cw {
				continue
			}
			cc := c.g*c.cg + c.fold*t.TC + tc
			ix := ox*c.cs.Stride + tr - c.cs.Padding
			iy := oy*c.cs.Stride + ts - c.cs.Padding
			idx := (cc*c.coordH+ix+c.cs.Padding)*c.coordW + iy + c.cs.Padding
			var slot int32
			if c.seen[idx] != curGen {
				reused := sameRow && c.seen[idx] == prevGen
				c.seen[idx] = curGen
				slot = int32(len(item.Deliveries))
				c.slot[idx] = slot
				var v float32
				if ix >= 0 && ix < c.cs.X && iy >= 0 && iy < c.cs.Y {
					v = c.in.At(0, cc, ix, iy)
				}
				item.Deliveries = append(item.Deliveries, dn.Delivery{
					Pkt:     comp.Packet{Value: v, Kind: comp.InputPkt, Seq: seq},
					Forward: reused,
				})
			} else {
				slot = c.slot[idx]
			}
			d := &item.Deliveries[slot]
			for kk := 0; kk < t.TK; kk++ {
				if c.mb*t.TK+kk >= c.kg {
					continue
				}
				d.Dests = append(d.Dests, c.ms(kk, ty, p))
				expect[kk*t.TYp+ty]++
			}
		}
	}
	c.prevOx = ox

	// Expected participation per VN: TC slice size times... each (kk,ty)
	// receives exactly one product per member with tc < cw.
	for kk := 0; kk < t.TK; kk++ {
		if c.mb*t.TK+kk >= c.kg {
			continue
		}
		kfull := c.g*c.kg + c.mb*t.TK + kk
		for ty := 0; ty < t.TYp; ty++ {
			oy := oyBase + ty
			if oy >= c.yo {
				continue
			}
			vn := kk*t.TYp + ty
			if expect[vn] == 0 {
				continue
			}
			// expect[vn] counted one product per member switch with a
			// valid channel slice — exactly the set that will latch.
			item.Jobs = append(item.Jobs, jobSpec{
				VN: vn, Seq: seq, Expect: expect[vn],
				OutIdx: (kfull*c.xo+ox)*c.yo + oy,
				Last:   c.fold == c.folds-1,
			})
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
	return item, true
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
