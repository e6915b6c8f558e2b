package engine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/comp"
	"repro/internal/config"
	"repro/internal/dn"
	"repro/internal/mapper"
	"repro/internal/sched"
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
	inT            *tensor.Tensor
	seen           []uint32
	slot           []int32
	coordW, coordH int
}

func newRefConvSource(in, w *tensor.Tensor, cs tensor.ConvShape, t mapper.Tile, forwarding bool) *refConvSource {
	r := &refConvSource{
		convSource: newConvSource(in, w, cs, t, forwarding),
		inT:        in,
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
						Value: c.w.At(kfull, c.fold*t.TC+tc, tr, ts),
						Kind:  comp.WeightPkt,
					},
					Dests: dests,
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
				VN: vn, Seq: seq, Expect: expect[vn],
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

// refGEMMSource is the pre-table GEMM builder.
type refGEMMSource struct{ *gemmSource }

func (g refGEMMSource) Next() (workItem, bool) {
	if g.exhausted {
		return workItem{}, false
	}
	t := g.t
	k0 := g.fold * t.KSlice
	kw := min(t.KSlice, g.k-k0)

	if g.phase == 0 {
		item := workItem{Barrier: true}
		for i := 0; i < t.TM; i++ {
			mi := g.mb*t.TM + i
			if mi >= g.m {
				continue
			}
			for p := 0; p < kw; p++ {
				dests := make([]int, 0, t.TN)
				for j := 0; j < t.TN; j++ {
					dests = append(dests, g.ms(i, j, p))
				}
				item.ReloadSet = append(item.ReloadSet, dests...)
				item.Deliveries = append(item.Deliveries, dn.Delivery{
					Pkt:   comp.Packet{Value: g.A.At(mi, k0+p), Kind: comp.WeightPkt},
					Dests: dests,
				})
			}
		}
		item.Prefetch = t.TM * t.KSlice
		g.phase = 1
		g.ng = 0
		return item, true
	}

	colBase := g.panel*g.panelCols + g.ng*t.TN
	item := workItem{}
	seq := g.seq
	g.seq++
	for j := 0; j < t.TN; j++ {
		nj := colBase + j
		if nj >= g.n || nj >= (g.panel+1)*g.panelCols {
			continue
		}
		for p := 0; p < kw; p++ {
			dests := make([]int, 0, t.TM)
			for i := 0; i < t.TM; i++ {
				if g.mb*t.TM+i >= g.m {
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
			})
		}
		for i := 0; i < t.TM; i++ {
			mi := g.mb*t.TM + i
			if mi >= g.m {
				continue
			}
			item.Jobs = append(item.Jobs, jobSpec{
				VN: i*t.TN + j, Seq: seq, Expect: kw,
				OutIdx: mi*g.n + nj,
				Last:   g.fold == ceilDiv(g.k, t.KSlice)-1,
			})
		}
	}

	g.ng++
	if g.ng >= g.groupsPerPanel || g.panel*g.panelCols+g.ng*t.TN >= g.n {
		g.ng = 0
		g.fold++
		g.phase = 0
		if g.fold >= ceilDiv(g.k, t.KSlice) {
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
// switches by k itself instead of reading the round's kDests.
type refSigmaSource struct{ *sigmaSource }

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
				item.Deliveries = append(item.Deliveries, dn.Delivery{
					Pkt:   comp.Packet{Value: v, Kind: comp.WeightPkt, Gen: gen},
					Dests: []int{cl.msBase + p},
				})
			}
		}
		s.phase = 1
		s.col = 0
		return item, true
	}

	var kOrder []int32
	kDests := map[int32][]int{}
	for _, cl := range r.clusters {
		for p, k := range cl.ks {
			if _, seen := kDests[k]; !seen {
				kOrder = append(kOrder, k)
			}
			kDests[k] = append(kDests[k], cl.msBase+p)
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
		})
		for _, ms := range dests {
			expect[r.clusterOfMS[ms]]++
		}
	}
	for ci, cl := range r.clusters {
		if expect[ci] == 0 {
			continue
		}
		item.Jobs = append(item.Jobs, jobSpec{
			VN: ci, Seq: seq, Expect: expect[ci],
			OutIdx:  cl.row*s.n + j,
			Last:    true,
			Members: cl.members,
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
		if g.Barrier != w.Barrier || g.Prefetch != w.Prefetch || (g.Reconfig == nil) != (w.Reconfig == nil) {
			t.Fatalf("item %d: barrier/prefetch/reconfig %v/%d/%v, want %v/%d/%v", items,
				g.Barrier, g.Prefetch, g.Reconfig != nil, w.Barrier, w.Prefetch, w.Reconfig != nil)
		}
		if !slices.Equal(g.ReloadSet, w.ReloadSet) {
			t.Fatalf("item %d: ReloadSet %v, want %v", items, g.ReloadSet, w.ReloadSet)
		}
		if len(g.Deliveries) != len(w.Deliveries) {
			t.Fatalf("item %d: %d deliveries, want %d", items, len(g.Deliveries), len(w.Deliveries))
		}
		for i, gd := range g.Deliveries {
			wd := w.Deliveries[i]
			if gd.Pkt != wd.Pkt || gd.Forward != wd.Forward || !slices.Equal(gd.Dests, wd.Dests) {
				t.Fatalf("item %d delivery %d: %+v, want %+v", items, i, gd, wd)
			}
		}
		if len(g.Jobs) != len(w.Jobs) {
			t.Fatalf("item %d: %d jobs, want %d", items, len(g.Jobs), len(w.Jobs))
		}
		for i, gj := range g.Jobs {
			wj := w.Jobs[i]
			if gj.VN != wj.VN || gj.Seq != wj.Seq || gj.Expect != wj.Expect || gj.OutIdx != wj.OutIdx ||
				gj.Last != wj.Last || !slices.Equal(gj.Members, wj.Members) {
				t.Fatalf("item %d job %d: %+v, want %+v", items, i, gj, wj)
			}
		}
	}
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
				src := newConvSource(in, w, cs, tile, forwarding)
				if tc.name == "multi-panel" && src.panels < 2 {
					t.Fatalf("case has %d panel", src.panels)
				}
				if n := assertSameSchedule(t, src, newRefConvSource(in, w, cs, tile, forwarding)); n == 0 {
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
				for _, slots := range b {
					if slots != nil {
						n++
					}
				}
			}
		}
		return n
	}
	cs := tensor.ConvShape{R: 3, S: 3, C: 5, G: 1, K: 7, N: 1, X: 9, Y: 10, Stride: 1, Padding: 1}
	in, w := randTensor(1, 1, cs.C, cs.X, cs.Y), randTensor(2, cs.K, cs.C, cs.R, cs.S)
	if n := count(newConvSource(in, w, cs, convTile(cs, 2, 3, 1, 3, 3), true)); n != 8 {
		t.Errorf("all-tails layer built %d step shapes, want 8", n)
	}
	cs.C, cs.K = 4, 6
	in, w = randTensor(1, 1, cs.C, cs.X, cs.Y), randTensor(2, cs.K, cs.C, cs.R, cs.S)
	if n := count(newConvSource(in, w, cs, convTile(cs, 2, 3, 1, 5, 2), true)); n != 1 {
		t.Errorf("evenly tiled layer built %d step shapes, want 1", n)
	}
}

func TestScheduleGEMMMatchesReference(t *testing.T) {
	cases := []struct {
		name    string
		m, n, k int
		tile    *mapper.GEMMTile // nil = mapper.PickGEMM on MAERILike(64,16)
	}{
		{"square", 4, 4, 4, nil},
		{"one", 1, 1, 1, nil},
		{"tail-k-slice", 10, 3, 130, nil}, // K = 64+64+2
		{"wide", 7, 20, 64, nil},
		{"tail-rows", 7, 9, 20, &mapper.GEMMTile{KSlice: 8, Folds: 3, TM: 3, TN: 2, NumVNs: 6, UsedMultipliers: 48}},            // M = 3+3+1, N = 2·4+1, K = 8+8+4
		{"tail-column-panel", 5, 2101, 6, &mapper.GEMMTile{KSlice: 4, Folds: 2, TM: 4, TN: 4, NumVNs: 16, UsedMultipliers: 64}}, // N = 1024+1024+53
		{"tile-taller-than-m", 2, 5, 3, &mapper.GEMMTile{KSlice: 4, Folds: 1, TM: 4, TN: 2, NumVNs: 8, UsedMultipliers: 32}},
	}
	hw := config.MAERILike(64, 16)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			A, B := randTensor(1, tc.m, tc.k), randTensor(2, tc.k, tc.n)
			var tile mapper.GEMMTile
			if tc.tile != nil {
				tile = *tc.tile
			} else {
				var err error
				if tile, err = mapper.PickGEMM(&hw, tc.m, tc.n, tc.k); err != nil {
					t.Fatal(err)
				}
			}
			src := newGEMMSource(A, B, tile)
			if tc.name == "tail-column-panel" && (src.panels < 3 || tc.n%src.panelCols == 0) {
				t.Fatalf("case does not end in a tail panel: %d panels of %d columns", src.panels, src.panelCols)
			}
			if n := assertSameSchedule(t, src, refGEMMSource{newGEMMSource(A, B, tile)}); n == 0 {
				t.Fatal("empty schedule")
			}
		})
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
			if n := assertSameSchedule(t, src, refSigmaSource{newSigmaSource(rounds, B)}); n == 0 {
				t.Fatal("empty schedule")
			}
		})
	}
}
