package engine

import (
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/mapper"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// The three sources below are large enough that the AllocsPerRun loop never
// reaches the end of a schedule, and their tiles give every kind of item
// (load and step, full and tail) inside it.

func allocConvSource() *convSource {
	cs := tensor.ConvShape{R: 3, S: 3, C: 6, G: 1, K: 8, N: 1, X: 16, Y: 17, Stride: 1, Padding: 1}
	in, w := randTensor(1, 1, cs.C, cs.X, cs.Y), randTensor(2, cs.K, cs.C, cs.R, cs.S)
	return newConvSource(in, w, cs, convTile(cs, 4, 3, 1, 4, 2), true)
}

func allocGEMMSource() *gemmSource {
	tile := mapper.GEMMTile{KSlice: 8, Folds: 3, TM: 3, TN: 2, NumVNs: 6, UsedMultipliers: 48}
	return newGEMMSource(randTensor(1, 40, 20), randTensor(2, 20, 41), tile)
}

func allocSigmaSource(t *testing.T) *sigmaSource {
	A := randTensor(7, 40, 24)
	for i, d := 0, A.Data(); i < len(d); i += 3 {
		d[i] = 0
	}
	csr, err := tensor.ToCSR(A)
	if err != nil {
		t.Fatal(err)
	}
	return newSigmaSource(buildSigmaRounds(csr, 32, sched.NS, 0x51634), randTensor(8, 24, 30))
}

func TestSourcesNextDoesNotAllocate(t *testing.T) {
	for name, src := range map[string]source{
		"conv":  allocConvSource(),
		"gemm":  allocGEMMSource(),
		"sigma": allocSigmaSource(t),
	} {
		const runs = 200
		items := 0
		avg := testing.AllocsPerRun(runs, func() {
			if _, ok := src.Next(); ok {
				items++
			}
		})
		if items != runs+1 { // AllocsPerRun warms up with one extra call
			t.Fatalf("%s: schedule ended after %d items; the guard needs %d", name, items, runs+1)
		}
		if avg != 0 {
			t.Errorf("%s: Next allocates %.2f times per item, want 0", name, avg)
		}
	}
}

// TestOpAllocationBudget bounds what a whole operation allocates per
// simulated cycle, everything included: fabric construction, destination
// tables, round packing, FIFOs, counters, the output tensor. When the
// sources built every item from fresh slices these three read 10 352, 13 434
// and 698 B/cycle; they read 246, 762 and 25 now. Each budget is a tenth of
// the old figure: set-up has room to grow under it, an allocation per
// compute step does not.
func TestOpAllocationBudget(t *testing.T) {
	starved := config.MAERILike(128, 64)
	starved.Preloaded = true
	starved.DRAM.BandwidthGBs = 0.25
	starved.DRAM.Modules = 1

	// MobileNets pw3 and SqueezeNet fire4_expand3x3 at 1/8 spatial scale.
	pw := tensor.ConvShape{R: 1, S: 1, C: 64, G: 1, K: 128, N: 1, X: 7, Y: 7, Stride: 1}
	ex := tensor.ConvShape{R: 3, S: 3, C: 32, G: 1, K: 128, N: 1, X: 6, Y: 6, Stride: 1, Padding: 1}

	cases := []struct {
		name   string
		hw     config.Hardware
		budget float64 // bytes per simulated cycle
		run    func(acc *Accelerator) (*stats.Run, error)
	}{
		{"mobilenets-pw/maeri", config.MAERILike(128, 64), 1000, func(acc *Accelerator) (*stats.Run, error) {
			_, run, err := acc.RunConv(randTensor(1, 1, pw.C, pw.X, pw.Y), randTensor(2, pw.K, pw.C, 1, 1), pw, "pw3")
			return run, err
		}},
		{"squeezenet-expand/sigma", config.SIGMALike(128, 64), 1300, func(acc *Accelerator) (*stats.Run, error) {
			w := randTensor(2, ex.K, ex.C, 3, 3)
			for i, d := 0, w.Data(); i < len(d); i++ {
				if i%10 < 7 {
					d[i] = 0 // the model's 70 % weight sparsity
				}
			}
			_, run, err := acc.RunConv(randTensor(1, 1, ex.C, ex.X, ex.Y), w, ex, "fire4_expand3x3")
			return run, err
		}},
		{"gemm-starved/maeri", starved, 70, func(acc *Accelerator) (*stats.Run, error) {
			_, run, err := acc.RunGEMM(randTensor(1, 16, 1024), randTensor(2, 1024, 16), "starved")
			return run, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			acc, err := New(tc.hw)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run, err := tc.run(acc)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			perCycle := float64(after.TotalAlloc-before.TotalAlloc) / float64(run.Cycles)
			t.Logf("%d bytes over %d cycles = %.1f B/cycle (budget %.0f)",
				after.TotalAlloc-before.TotalAlloc, run.Cycles, perCycle, tc.budget)
			if perCycle > tc.budget {
				t.Errorf("%.1f bytes allocated per simulated cycle, budget %.0f", perCycle, tc.budget)
			}
		})
	}
}

// heldItemProbe is a flexRun whose Control also notes whether a cycle ended
// with a partly issued item still held: the DN injection queue refused a
// delivery (it was full), so the item's buffers must survive until the next
// cycle resumes from curDeliv.
type heldItemProbe struct {
	*flexRun
	held int
}

func (p *heldItemProbe) Control() {
	p.flexRun.Control()
	if p.hasCur && p.issued && p.curDeliv < len(p.cur.Deliveries) {
		p.held++
	}
}

// tableSum folds every shared destination table a source hands out — and,
// for the SIGMA source, the member sets jobs carry — into one checksum.
func tableSum(tables ...[][]int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, table := range tables {
		for _, set := range table {
			for _, ms := range append([]int{len(set)}, set...) {
				for i := range b {
					b[i] = byte(uint(ms) >> (8 * i))
				}
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// TestSharedTablesSurviveFullQueue runs each source through a fabric whose
// DN drains one value a cycle, so the injection queue fills to its cap, the
// controller is refused mid-item and over a thousand queued deliveries alias
// the same few tables — then checks that no table changed and the result is
// still right.
func TestSharedTablesSurviveFullQueue(t *testing.T) {
	maeri := config.MAERILike(128, 1)
	maeri.Preloaded = true
	sigma := config.SIGMALike(64, 1)
	sigma.Preloaded = true

	cs := tensor.ConvShape{R: 3, S: 3, C: 6, G: 1, K: 8, N: 1, X: 12, Y: 13, Stride: 1, Padding: 1}
	in, w := randTensor(1, 1, cs.C, cs.X, cs.Y), randTensor(2, cs.K, cs.C, cs.R, cs.S)
	conv := newConvSource(in, w, cs, convTile(cs, 2, 2, 1, 3, 3), true)
	wantConv, err := tensor.Conv2D(in, w, cs)
	if err != nil {
		t.Fatal(err)
	}

	A, B := randTensor(3, 20, 24), randTensor(4, 24, 300)
	gemm := newGEMMSource(A, B, mapper.GEMMTile{KSlice: 8, Folds: 3, TM: 3, TN: 2, NumVNs: 6, UsedMultipliers: 48})
	wantGEMM, err := tensor.MatMul(A, B)
	if err != nil {
		t.Fatal(err)
	}

	csr, err := tensor.ToCSR(A)
	if err != nil {
		t.Fatal(err)
	}
	rounds := buildSigmaRounds(csr, sigma.MSSize, sched.NS, 0x51634)
	spmm := newSigmaSource(rounds, B)

	var convSteps, sigmaTables [][][]int
	for _, a := range conv.steps {
		for _, b := range a {
			for _, slots := range b {
				dests := make([][]int, len(slots))
				for i := range slots {
					dests[i] = slots[i].dests
				}
				convSteps = append(convSteps, dests)
			}
		}
	}
	for i := range rounds {
		members := make([][]int, len(rounds[i].clusters))
		for ci := range members {
			members[ci] = rounds[i].clusters[ci].members
		}
		sigmaTables = append(sigmaTables, rounds[i].kDests, members)
	}

	cases := []struct {
		name   string
		hw     config.Hardware
		op     flexOp
		tables [][][]int
		want   *tensor.Tensor
	}{
		{"conv", maeri, flexOp{op: "CONV", src: conv, vns: conv.vns(), outShape: []int{1, cs.K, conv.xo, conv.yo}},
			append(convSteps, conv.wDests), wantConv},
		{"gemm", maeri, flexOp{op: "GEMM", src: gemm, vns: gemm.vns(), outShape: []int{20, 300}},
			[][][]int{gemm.wDests, gemm.sDests}, wantGEMM},
		{"sigma", sigma, flexOp{op: "SpMM", src: spmm, sumOut: true, outShape: []int{20, 300}},
			sigmaTables, wantGEMM},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := tableSum(tc.tables...)
			ctx := sim.NewCtx(&tc.hw)
			f, err := newFlexRun(ctx, tc.op)
			if err != nil {
				t.Fatal(err)
			}
			probe := &heldItemProbe{flexRun: f}
			k := sim.Kernel{Ctx: ctx, Ctrl: probe, Ticks: f.ticks()}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			out, err := tensor.FromSlice(f.out, tc.op.outShape...)
			if err != nil {
				t.Fatal(err)
			}
			if probe.held == 0 {
				t.Fatal("the DN queue never filled: no item was held across a cycle")
			}
			if after := tableSum(tc.tables...); after != before {
				t.Errorf("a shared destination table changed during the run: checksum %x, was %x", after, before)
			}
			if !closeEnough(out, tc.want) {
				t.Error("wrong result")
			}
		})
	}
}
