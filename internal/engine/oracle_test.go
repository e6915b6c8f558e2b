package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/comp"
	"repro/internal/config"
	"repro/internal/dn"
	"repro/internal/mapper"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// The reference schedule builders: the straight-line code the sources ran
// before they were given destination tables and buffers. Each derives every
// step from scratch — a per-step coordinate dedup for the convolution, one
// append-grown Dests per delivery everywhere — and shares with the source
// under test only the geometry its constructor computes (panel sizes, block
// counts). TestSchedule* hold the sources to these item by item.

// refConvSource is the pre-table convolution builder: seen[idx] holds the
// generation (seq+1) a padded input coordinate was last needed in, slot[idx]
// its delivery index within the current step; a coordinate stamped with the
// previous step's generation can ride the forwarding links.
type refConvSource struct {
	*convSource
	steiner        *dn.Steiner
	inT, wT        *tensor.Tensor
	seen           []uint32
	slot           []int32
	coordW, coordH int
}

func newRefConvSource(in, w *tensor.Tensor, cs tensor.ConvShape, t mapper.Tile, forwarding bool, leaves int) *refConvSource {
	r := &refConvSource{
		convSource: newConvSource(in, w, cs, t, forwarding, leaves),
		steiner:    dn.NewSteiner(leaves),
		inT:        in,
		wT:         w,
		coordH:     cs.X + 2*cs.Padding,
		coordW:     cs.Y + 2*cs.Padding,
	}
	cells := cs.C * r.coordH * r.coordW
	r.seen = make([]uint32, cells)
	r.slot = make([]int32, cells)
	return r
}

func (c *refConvSource) Next() (workItem, bool) {
	if c.exhausted {
		return workItem{}, false
	}
	t := c.t
	cw := min(t.TC, c.cg-c.fold*t.TC) // channels in this fold

	if c.phase == 0 {
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
						Value: c.wT.At(kfull, c.fold*t.TC+tc, tr, ts),
						Kind:  comp.WeightPkt,
					},
					Dests: dests,
					Edges: c.steiner.Edges(dests),
				})
			}
		}
		item.Prefetch = t.TK * t.VNSize
		c.phase = 1
		c.prevOx = -1
		return item, true
	}

	grpAbs := c.panel*c.panelGroups + c.grp
	ox := grpAbs / c.groupsPerRow
	oyBase := (grpAbs % c.groupsPerRow) * t.TYp

	item := workItem{}
	seq := c.seq
	c.seq++

	curGen := seq + 1
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
					v = c.inT.At(0, cc, ix, iy)
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
	for i := range item.Deliveries {
		item.Deliveries[i].Edges = c.steiner.Edges(item.Deliveries[i].Dests)
	}

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
			item.Jobs = append(item.Jobs, jobSpec{
				VN: int32(vn), Seq: seq, Expect: int32(expect[vn]),
				OutIdx: (kfull*c.xo+ox)*c.yo + oy,
				Last:   c.fold == c.folds-1,
			})
		}
	}

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

// refGEMMSource is the pre-table GEMM builder, from when a GEMM had a
// schedule source of its own: a TM×TN grid of VNs, each covering a KSlice of
// one output row, its weight-stationary rows loaded per (row block, fold) and
// its columns streamed TN at a time within accumulator-sized panels. It keeps
// its own geometry; the source under test is the 1×1 convolution.
type refGEMMSource struct {
	A, B                            *tensor.Tensor
	m, n, k                         int
	kslice, tm, tn                  int
	panelCols                       int
	mblocks, panels, groupsPerPanel int

	mb, panel, fold, ng int
	phase               int
	seq                 uint32
	exhausted           bool
	steiner             *dn.Steiner
}

func newRefGEMMSource(A, B *tensor.Tensor, kslice, tm, tn, leaves int) *refGEMMSource {
	g := &refGEMMSource{A: A, B: B, m: A.Dim(0), n: B.Dim(1), k: A.Dim(1), kslice: kslice, tm: tm, tn: tn,
		steiner: dn.NewSteiner(leaves)}
	g.panelCols = max(sim.MaxAccEntries/tm, tn)
	g.panelCols -= g.panelCols % tn
	g.panelCols = min(g.panelCols, g.n)
	g.mblocks = ceilDiv(g.m, tm)
	g.panels = ceilDiv(g.n, g.panelCols)
	g.groupsPerPanel = ceilDiv(g.panelCols, tn)
	return g
}

// vns is the VN sizes: VN (i,j) = i·TN + j occupies KSlice consecutive
// switches.
func (g *refGEMMSource) vns() []int {
	vns := make([]int, g.tm*g.tn)
	for v := range vns {
		vns[v] = g.kslice
	}
	return vns
}

func (g *refGEMMSource) ms(i, j, p int) int { return (i*g.tn+j)*g.kslice + p }

func (g *refGEMMSource) Next() (workItem, bool) {
	if g.exhausted {
		return workItem{}, false
	}
	k0 := g.fold * g.kslice
	kw := min(g.kslice, g.k-k0)

	if g.phase == 0 {
		item := workItem{Barrier: true}
		for i := 0; i < g.tm; i++ {
			mi := g.mb*g.tm + i
			if mi >= g.m {
				continue
			}
			for p := 0; p < kw; p++ {
				dests := make([]int, 0, g.tn)
				for j := 0; j < g.tn; j++ {
					dests = append(dests, g.ms(i, j, p))
				}
				item.ReloadSet = append(item.ReloadSet, dests...)
				item.Deliveries = append(item.Deliveries, dn.Delivery{
					Pkt:   comp.Packet{Value: g.A.At(mi, k0+p), Kind: comp.WeightPkt},
					Dests: dests,
					Edges: g.steiner.Edges(dests),
				})
			}
		}
		item.Prefetch = g.tm * g.kslice
		g.phase = 1
		g.ng = 0
		return item, true
	}

	colBase := g.panel*g.panelCols + g.ng*g.tn
	item := workItem{}
	seq := g.seq
	g.seq++
	for j := 0; j < g.tn; j++ {
		nj := colBase + j
		if nj >= g.n || nj >= (g.panel+1)*g.panelCols {
			continue
		}
		for p := 0; p < kw; p++ {
			dests := make([]int, 0, g.tm)
			for i := 0; i < g.tm; i++ {
				if g.mb*g.tm+i >= g.m {
					continue
				}
				dests = append(dests, g.ms(i, j, p))
			}
			if len(dests) == 0 {
				continue
			}
			item.Deliveries = append(item.Deliveries, dn.Delivery{
				Pkt:   comp.Packet{Value: g.B.At(k0+p, nj), Kind: comp.InputPkt, Seq: seq},
				Dests: dests,
				Edges: g.steiner.Edges(dests),
			})
		}
		for i := 0; i < g.tm; i++ {
			mi := g.mb*g.tm + i
			if mi >= g.m {
				continue
			}
			item.Jobs = append(item.Jobs, jobSpec{
				VN: int32(i*g.tn + j), Seq: seq, Expect: int32(kw),
				OutIdx: mi*g.n + nj,
				Last:   g.fold == ceilDiv(g.k, g.kslice)-1,
			})
		}
	}

	g.ng++
	if g.ng >= g.groupsPerPanel || g.panel*g.panelCols+g.ng*g.tn >= g.n {
		g.ng = 0
		g.fold++
		g.phase = 0
		if g.fold >= ceilDiv(g.k, g.kslice) {
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
	return item, true
}

// refSigmaSource is the pre-buffer SIGMA builder; it regroups each round's
// switches by k itself instead of reading the round's kGroups, maps switches
// to clusters itself, and counts every delivery's Steiner edges afresh.
type refSigmaSource struct {
	*sigmaSource
	steiner *dn.Steiner
}

func (s refSigmaSource) Next() (workItem, bool) {
	if s.exhausted {
		return workItem{}, false
	}
	r := &s.rounds[s.round]

	gen := uint32(s.round + 1)
	if s.phase == 0 {
		item := workItem{Prefetch: r.used}
		for _, cl := range r.clusters {
			for p, v := range cl.vals {
				dests := []int{cl.msBase + p}
				item.Deliveries = append(item.Deliveries, dn.Delivery{
					Pkt:   comp.Packet{Value: v, Kind: comp.WeightPkt, Gen: gen},
					Dests: dests,
					Edges: s.steiner.Edges(dests),
				})
			}
		}
		s.phase = 1
		s.col = 0
		return item, true
	}

	var kOrder []int32
	kDests := map[int32][]int{}
	clusterOfMS := map[int]int{}
	for ci, cl := range r.clusters {
		for p, k := range cl.ks {
			if _, seen := kDests[k]; !seen {
				kOrder = append(kOrder, k)
			}
			kDests[k] = append(kDests[k], cl.msBase+p)
			clusterOfMS[cl.msBase+p] = ci
		}
	}

	item := workItem{}
	seq := s.seq
	s.seq++
	j := s.col
	expect := make([]int, len(r.clusters))
	for _, k := range kOrder {
		bv := s.B.At(int(k), j)
		if bv == 0 {
			continue
		}
		dests := kDests[k]
		item.Deliveries = append(item.Deliveries, dn.Delivery{
			Pkt:   comp.Packet{Value: bv, Kind: comp.InputPkt, Seq: seq, Gen: gen},
			Dests: dests,
			Edges: s.steiner.Edges(dests),
		})
		for _, ms := range dests {
			expect[clusterOfMS[ms]]++
		}
	}
	for ci, cl := range r.clusters {
		if expect[ci] == 0 {
			continue
		}
		item.Jobs = append(item.Jobs, jobSpec{
			VN: int32(ci), Seq: seq, Gen: gen, Expect: int32(expect[ci]),
			OutIdx: cl.row*s.n + j,
			Last:   true,
		})
	}

	s.col++
	if s.col >= s.n {
		s.phase = 0
		s.round++
		if s.round >= len(s.rounds) {
			s.exhausted = true
		}
	}
	return item, true
}

// assertSameSchedule steps got and want in lockstep and compares every field
// of every item. got's item is inspected before its next Next(), as the
// controller does.
func assertSameSchedule(t *testing.T, got, want source) (items int) {
	t.Helper()
	for ; ; items++ {
		g, gok := got.Next()
		w, wok := want.Next()
		if gok != wok {
			t.Fatalf("item %d: source continues = %v, reference continues = %v", items, gok, wok)
		}
		if !gok {
			return items
		}
		if g.Barrier != w.Barrier || g.Prefetch != w.Prefetch {
			t.Fatalf("item %d: barrier/prefetch %v/%d, want %v/%d", items,
				g.Barrier, g.Prefetch, w.Barrier, w.Prefetch)
		}
		if !slices.Equal(g.ReloadSet, w.ReloadSet) {
			t.Fatalf("item %d: ReloadSet %v, want %v", items, g.ReloadSet, w.ReloadSet)
		}
		if len(g.Deliveries) != len(w.Deliveries) {
			t.Fatalf("item %d: %d deliveries, want %d", items, len(g.Deliveries), len(w.Deliveries))
		}
		for i, gd := range g.Deliveries {
			wd := w.Deliveries[i]
			if gd.Pkt != wd.Pkt || gd.Forward != wd.Forward || gd.Edges != wd.Edges || !slices.Equal(gd.Dests, wd.Dests) {
				t.Fatalf("item %d delivery %d: %+v, want %+v", items, i, gd, wd)
			}
		}
		// Jobs are compared by VN: the controller files them into per-VN
		// queues, so their order within an item is not observable.
		if len(g.Jobs) != len(w.Jobs) {
			t.Fatalf("item %d: %d jobs, want %d", items, len(g.Jobs), len(w.Jobs))
		}
		want := make(map[int32]jobSpec, len(w.Jobs))
		for _, wj := range w.Jobs {
			if _, dup := want[wj.VN]; dup {
				t.Fatalf("item %d: reference has two jobs for VN %d", items, wj.VN)
			}
			want[wj.VN] = wj
		}
		for _, gj := range g.Jobs {
			wj, ok := want[gj.VN]
			if !ok {
				t.Fatalf("item %d: job %+v for a VN the reference has no job (or already matched) for", items, gj)
			}
			delete(want, gj.VN)
			if gj != wj {
				t.Fatalf("item %d VN %d: job %+v, want %+v", items, gj.VN, gj, wj)
			}
		}
	}
}

// fabricFor is the smallest tree fabric (a power of two) that holds tile's
// switches: the leaves the schedule oracles count Steiner edges on.
func fabricFor(tile mapper.Tile) int {
	return 1 << bits.Len(uint(tile.NumVNs*tile.VNSize-1))
}

// convTile builds a user tile over the whole R×S window the way a
// RunConvTiled caller would, with T_X' folded into T_Y' as RunConvTiled does.
func convTile(cs tensor.ConvShape, tc, tk, txp, typ, folds int) mapper.Tile {
	typ *= txp
	return mapper.Tile{
		TR: cs.R, TS: cs.S, TC: tc, TG: 1, TK: tk, TN: 1, TXp: 1, TYp: typ,
		VNSize: cs.R * cs.S * tc, NumVNs: tk * typ,
		Folds: folds, UsedMultipliers: tk * typ * cs.R * cs.S * tc,
	}
}

func TestScheduleConvMatchesReference(t *testing.T) {
	type tcase struct {
		name string
		cs   tensor.ConvShape
		tile func(cs tensor.ConvShape) mapper.Tile // nil = mapper.PickConv on MAERILike(64,16)
	}
	var cases []tcase
	// Mapper tiles over the stride × padding × window grid, plain, grouped
	// and depthwise; 7×9 images so rows end in a tail group for most tiles.
	for _, stride := range []int{1, 2} {
		for _, pad := range []int{0, 1, 2} {
			for _, win := range []int{1, 3, 5} {
				for _, g := range []struct{ c, k, groups int }{{6, 5, 1}, {6, 6, 2}, {4, 4, 4}} {
					cases = append(cases, tcase{
						name: fmt.Sprintf("s%d-p%d-w%d-g%d", stride, pad, win, g.groups),
						cs: tensor.ConvShape{R: win, S: win, C: g.c, G: g.groups, K: g.k, N: 1,
							X: 7 + win, Y: 9 + win, Stride: stride, Padding: pad},
					})
				}
			}
		}
	}
	// User tiles, each aimed at one edge.
	user := func(name string, cs tensor.ConvShape, tc, tk, txp, typ, folds int) {
		cases = append(cases, tcase{name: name, cs: cs, tile: func(cs tensor.ConvShape) mapper.Tile {
			return convTile(cs, tc, tk, txp, typ, folds)
		}})
	}
	base := tensor.ConvShape{R: 3, S: 3, C: 5, G: 1, K: 7, N: 1, X: 9, Y: 10, Stride: 1, Padding: 1}
	user("tail-fold", base, 2, 1, 1, 2, 3)                // C/G = 5 = 2+2+1
	user("tail-filter-block", base, 1, 3, 1, 2, 5)        // K/G = 7 = 3+3+1
	user("tail-group", base, 1, 1, 1, 4, 5)               // Y' = 10 = 4+4+2
	user("all-tails", base, 2, 3, 1, 3, 3)                // every tail at once: all eight shapes
	user("txp-folded", base, 1, 2, 3, 1, 5)               // T_X' = 3 becomes T_Y' = 3
	user("txp-times-typ", base, 1, 1, 2, 2, 5)            // T_X'·T_Y' = 4
	user("tile-wider-than-row", base, 1, 2, 1, 16, 5)     // T_Y' > Y': only a tail group
	user("tile-taller-than-filters", base, 1, 9, 1, 2, 5) // T_K > K/G: only a tail block
	user("excess-folds", base, 2, 2, 1, 2, 5)             // folds past the channels issue empty items
	stride2 := base
	stride2.Stride, stride2.Padding, stride2.X, stride2.Y = 2, 0, 11, 13
	user("stride2-tails", stride2, 2, 3, 1, 4, 3) // Y' = 6 = 4+2
	big := tensor.ConvShape{R: 1, S: 1, C: 2, G: 1, K: 40, N: 1, X: 40, Y: 40, Stride: 1}
	user("multi-panel", big, 1, 8, 1, 8, 2) // 8·8 accumulators a group: several panels
	cases = append(cases, tcase{name: "partial-window", cs: base, tile: func(cs tensor.ConvShape) mapper.Tile {
		tile := convTile(cs, 1, 2, 1, 3, 5)
		tile.TR, tile.TS, tile.VNSize, tile.UsedMultipliers = 2, 2, 4, 2*3*4
		return tile
	}})

	hw := config.MAERILike(64, 16)
	for _, tc := range cases {
		for _, forwarding := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/fwd=%v", tc.name, forwarding), func(t *testing.T) {
				cs := tc.cs
				if err := cs.Validate(); err != nil {
					t.Fatal(err)
				}
				var tile mapper.Tile
				if tc.tile != nil {
					tile = tc.tile(cs)
				} else {
					var err error
					if tile, err = mapper.PickConv(&hw, cs); err != nil {
						t.Fatal(err)
					}
				}
				if err := tile.Validate(cs); err != nil {
					t.Fatal(err)
				}
				in := randTensor(11, 1, cs.C, cs.X, cs.Y)
				w := randTensor(12, cs.K, cs.C/cs.G, cs.R, cs.S)
				leaves := fabricFor(tile)
				src := newConvSource(in, w, cs, tile, forwarding, leaves)
				if tc.name == "multi-panel" && src.panels < 2 {
					t.Fatalf("case has %d panel", src.panels)
				}
				if n := assertSameSchedule(t, src, newRefConvSource(in, w, cs, tile, forwarding, leaves)); n == 0 {
					t.Fatal("empty schedule")
				}
			})
		}
	}
}

// TestScheduleConvShapeCount pins the "at most eight shapes" claim at its
// maximum: a layer with a tail fold, a tail group and a tail filter block
// builds all eight, a layer every tile dimension divides builds one.
func TestScheduleConvShapeCount(t *testing.T) {
	count := func(c *convSource) (n int) {
		for _, a := range c.steps {
			for _, b := range a {
				for _, step := range b {
					if step.deliv != nil {
						n++
					}
				}
			}
		}
		return n
	}
	cs := tensor.ConvShape{R: 3, S: 3, C: 5, G: 1, K: 7, N: 1, X: 9, Y: 10, Stride: 1, Padding: 1}
	in, w := randTensor(1, 1, cs.C, cs.X, cs.Y), randTensor(2, cs.K, cs.C, cs.R, cs.S)
	tile := convTile(cs, 2, 3, 1, 3, 3)
	if n := count(newConvSource(in, w, cs, tile, true, fabricFor(tile))); n != 8 {
		t.Errorf("all-tails layer built %d step shapes, want 8", n)
	}
	cs.C, cs.K = 4, 6
	in, w = randTensor(1, 1, cs.C, cs.X, cs.Y), randTensor(2, cs.K, cs.C, cs.R, cs.S)
	tile = convTile(cs, 2, 3, 1, 5, 2)
	if n := count(newConvSource(in, w, cs, tile, true, fabricFor(tile))); n != 1 {
		t.Errorf("evenly tiled layer built %d step shapes, want 1", n)
	}
}

// gemmCase is one GEMM shape the schedule and run oracles share.
type gemmCase struct {
	name    string
	m, n, k int
	// user is the tile (KSlice, TM, TN) aimed at one edge; zero means
	// mapper.PickGEMM's on the hardware under test.
	user      [3]int
	wantPanel bool // several column panels, the last one short
}

var gemmOracleCases = []gemmCase{
	{name: "square", m: 4, n: 4, k: 4},
	{name: "one", m: 1, n: 1, k: 1},
	{name: "tail-k-slice", m: 10, n: 3, k: 130}, // K = 64+64+2; M > N runs input-stationary
	{name: "wide", m: 7, n: 20, k: 64},
	{name: "tail-rows", m: 7, n: 9, k: 20, user: [3]int{8, 3, 2}},                            // M = 3+3+1, N = 2·4+1, K = 8+8+4
	{name: "tail-column-panel", m: 5, n: 2101, k: 6, user: [3]int{4, 4, 4}, wantPanel: true}, // N = 1024+1024+53
	{name: "tile-taller-than-m", m: 2, n: 5, k: 3, user: [3]int{4, 4, 2}},
}

// userTile is the case's user tile as the mapper.Tile of its 1×1
// convolution, nil when the mapper picks.
func (c gemmCase) userTile() *mapper.Tile {
	if c.user == [3]int{} {
		return nil
	}
	kslice, tm, tn := c.user[0], c.user[1], c.user[2]
	t := convTile(mapper.GEMMShape(c.m, c.n, c.k), kslice, tm, 1, tn, ceilDiv(c.k, kslice))
	return &t
}

// gemmSchedule builds the schedule of A×B on tile t of a fabric of leaves
// switches, returning it with the VN sizes it programs.
type gemmSchedule func(A, B *tensor.Tensor, t mapper.Tile, leaves int) (source, []int, error)

func convGEMMSchedule(A, B *tensor.Tensor, t mapper.Tile, leaves int) (source, []int, error) {
	src, err := gemmConvSource(A, B, t, leaves)
	if err != nil {
		return nil, nil, err
	}
	return src, src.vns(), nil
}

func refGEMMSchedule(A, B *tensor.Tensor, t mapper.Tile, leaves int) (source, []int, error) {
	src := newRefGEMMSource(A, B, t.TC, t.TK, t.TYp, leaves)
	return src, src.vns(), nil
}

func TestScheduleGEMMMatchesReference(t *testing.T) {
	hw := config.MAERILike(64, 16)
	for _, tc := range gemmOracleCases {
		t.Run(tc.name, func(t *testing.T) {
			A, B := randTensor(1, tc.m, tc.k), randTensor(2, tc.k, tc.n)
			tile, err := mapper.PickGEMM(&hw, tc.m, tc.n, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if ut := tc.userTile(); ut != nil {
				tile = *ut
			}
			leaves := fabricFor(tile)
			src, err := gemmConvSource(A, B, tile, leaves)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefGEMMSource(A, B, tile.TC, tile.TK, tile.TYp, leaves)
			if tc.wantPanel && (src.panels < 3 || tc.n%ref.panelCols == 0) {
				t.Fatalf("case does not end in a tail panel: %d panels of %d columns", src.panels, ref.panelCols)
			}
			if !slices.Equal(src.vns(), ref.vns()) {
				t.Fatal("VN sizes differ from the reference")
			}
			if n := assertSameSchedule(t, src, ref); n == 0 {
				t.Fatal("empty schedule")
			}
		})
	}
}

// runGEMMWith is RunGEMM's lifecycle over the schedule build makes: the same
// dataflow choice (M > N runs transposed, input-stationary), tile (the
// mapper's when tile is nil), VN programming, DRAM fill and run record.
func runGEMMWith(hw config.Hardware, A, B *tensor.Tensor, tile *mapper.Tile, build gemmSchedule) (*tensor.Tensor, *stats.Run, error) {
	inputStationary := A.Dim(0) > B.Dim(1)
	if inputStationary {
		A, B = tensor.Transpose(B), tensor.Transpose(A)
	}
	m, k := A.Dim(0), A.Dim(1)
	n := B.Dim(1)
	t, err := mapper.PickGEMM(&hw, m, n, k)
	if err != nil {
		return nil, nil, err
	}
	if tile != nil {
		t = *tile
	}
	src, vns, err := build(A, B, t, hw.MSSize)
	if err != nil {
		return nil, nil, err
	}
	out, run, err := runFlex(sim.NewCtx(&hw), flexOp{
		op: "GEMM", layer: "oracle", m: m, n: n, k: k,
		src: src, vns: vns, fill: m*k + k*n, outShape: []int{m, n},
	})
	if err != nil || !inputStationary {
		return out, run, err
	}
	return tensor.Transpose(out), run, nil
}

// TestRunGEMMMatchesReference runs every oracle case through the whole
// flexible lifecycle twice — on the 1×1-convolution schedule (RunGEMM itself
// where the mapper picks the tile) and on the pre-change GEMM builder — and
// requires the same run record, byte for byte, and the same bits out. It is
// the check behind "the order of an item's jobs is not observable".
func TestRunGEMMMatchesReference(t *testing.T) {
	for _, rn := range []config.RNType{config.ARTAccRN, config.ARTRN} {
		for _, dram := range []string{"preloaded", "cold", "starved"} {
			hw := config.MAERILike(64, 16)
			hw.RN = rn
			switch dram {
			case "preloaded":
				hw.Preloaded = true
			case "starved":
				hw.DRAM.BandwidthGBs, hw.DRAM.Modules = 0.25, 1
			}
			acc, err := New(hw)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range gemmOracleCases {
				t.Run(rn.String()+"/"+dram+"/"+tc.name, func(t *testing.T) {
					A, B := randTensor(1, tc.m, tc.k), randTensor(2, tc.k, tc.n)
					var (
						got    *tensor.Tensor
						gotRun *stats.Run
						err    error
					)
					if ut := tc.userTile(); ut != nil {
						got, gotRun, err = runGEMMWith(hw, A, B, ut, convGEMMSchedule)
					} else {
						got, gotRun, err = acc.RunGEMM(A, B, "oracle")
					}
					if err != nil {
						t.Fatal(err)
					}
					want, wantRun, err := runGEMMWith(hw, A, B, tc.userTile(), refGEMMSchedule)
					if err != nil {
						t.Fatal(err)
					}
					gotJSON, gerr := json.Marshal(gotRun)
					wantJSON, werr := json.Marshal(wantRun)
					if gerr != nil || werr != nil {
						t.Fatal(gerr, werr)
					}
					if !bytes.Equal(gotJSON, wantJSON) {
						t.Errorf("run record differs:\n got %s\nwant %s", gotJSON, wantJSON)
					}
					if !slices.Equal(got.Shape(), want.Shape()) {
						t.Fatalf("output shape %v, want %v", got.Shape(), want.Shape())
					}
					for i, v := range got.Data() {
						if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
							t.Fatalf("output %d = %v, want %v", i, v, want.Data()[i])
						}
					}
				})
			}
		}
	}
}

func TestScheduleSigmaMatchesReference(t *testing.T) {
	cases := []struct {
		name       string
		m, n, k    int
		capacity   int
		zeroBCols  []int // columns of B cleared entirely
		zeroBRows  []int // rows of B cleared entirely: those k never stream
		policy     sched.Policy
		wantRounds int // at least
	}{
		{name: "one-round", m: 4, n: 3, k: 6, capacity: 64, wantRounds: 1},
		{name: "multi-round", m: 6, n: 3, k: 10, capacity: 16, wantRounds: 2},
		{name: "split-rows", m: 3, n: 4, k: 40, capacity: 16, wantRounds: 3}, // rows longer than the fabric split into chunks
		{name: "zero-b-columns", m: 6, n: 5, k: 10, capacity: 16, zeroBCols: []int{0, 3}, wantRounds: 2},
		{name: "zero-b-rows", m: 6, n: 4, k: 10, capacity: 16, zeroBRows: []int{2, 7}, wantRounds: 2},
		{name: "lff", m: 8, n: 3, k: 12, capacity: 16, policy: sched.LFF, wantRounds: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			A := randTensor(7, tc.m, tc.k)
			for i, d := 0, A.Data(); i < len(d); i += 3 {
				d[i] = 0 // a third of the stationary matrix is zero
			}
			B := randTensor(8, tc.k, tc.n)
			for _, j := range tc.zeroBCols {
				for k := 0; k < tc.k; k++ {
					B.Set(0, k, j)
				}
			}
			for _, k := range tc.zeroBRows {
				for j := 0; j < tc.n; j++ {
					B.Set(0, k, j)
				}
			}
			csr, err := tensor.ToCSR(A)
			if err != nil {
				t.Fatal(err)
			}
			rounds := buildSigmaRounds(csr, tc.capacity, tc.policy, 0x51634)
			if len(rounds) < tc.wantRounds {
				t.Fatalf("%d rounds, want at least %d", len(rounds), tc.wantRounds)
			}
			src := newSigmaSource(rounds, B)
			ref := refSigmaSource{newSigmaSource(rounds, B), dn.NewSteiner(tc.capacity)}
			if n := assertSameSchedule(t, src, ref); n == 0 {
				t.Fatal("empty schedule")
			}
		})
	}
}
