package engine

import (
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// The two sources below are large enough that the AllocsPerRun loop never
// reaches the end of a schedule, and their tiles give every kind of item
// (load and step, full and tail) inside it. A GEMM runs on the convolution
// source (gemmConvSource), so the "conv" row covers it.

func allocConvSource() *convSource {
	cs := tensor.ConvShape{R: 3, S: 3, C: 6, G: 1, K: 8, N: 1, X: 16, Y: 17, Stride: 1, Padding: 1}
	in, w := randTensor(1, 1, cs.C, cs.X, cs.Y), randTensor(2, cs.K, cs.C, cs.R, cs.S)
	tile := convTile(cs, 4, 3, 1, 4, 2)
	return newConvSource(in, w, cs, tile, true, fabricFor(tile))
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

// MobileNets pw3 and SqueezeNet fire4_expand3x3 at 1/8 spatial scale: the
// flexible fabrics' rows of TestOpAllocationBudget and BenchmarkFabric.
var (
	mobilenetsPW     = tensor.ConvShape{R: 1, S: 1, C: 64, G: 1, K: 128, N: 1, X: 7, Y: 7, Stride: 1}
	squeezenetExpand = tensor.ConvShape{R: 3, S: 3, C: 32, G: 1, K: 128, N: 1, X: 6, Y: 6, Stride: 1, Padding: 1}
)

// squeezenetExpandWeights draws squeezenetExpand's filters at the model's
// 70 % weight sparsity.
func squeezenetExpandWeights() *tensor.Tensor {
	ex := squeezenetExpand
	w := randTensor(2, ex.K, ex.C, ex.R, ex.S)
	for i, d := 0, w.Data(); i < len(d); i++ {
		if i%10 < 7 {
			d[i] = 0
		}
	}
	return w
}

// BenchmarkFabric times whole convolutions on the two flexible fabrics and
// reports host time and allocated bytes per simulated cycle — the
// component-level view of what bench's model-flex workload measures end to
// end: go test ./internal/engine -run '^$' -bench Fabric.
func BenchmarkFabric(b *testing.B) {
	pw, ex := mobilenetsPW, squeezenetExpand
	for _, bc := range []struct {
		name string
		hw   config.Hardware
		cs   tensor.ConvShape
		w    *tensor.Tensor
	}{
		{"maeri-conv", config.MAERILike(128, 64), pw, randTensor(2, pw.K, pw.C, pw.R, pw.S)},
		{"sigma-conv", config.SIGMALike(128, 64), ex, squeezenetExpandWeights()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			acc, err := New(bc.hw)
			if err != nil {
				b.Fatal(err)
			}
			in := randTensor(1, 1, bc.cs.C, bc.cs.X, bc.cs.Y)
			var cycles uint64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunConv(in, bc.w, bc.cs, "fabric")
				if err != nil {
					b.Fatal(err)
				}
				cycles += run.Cycles
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/sim-cycle")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(cycles), "B/sim-cycle")
		})
	}
}

// TestOpAllocationBudget bounds what a whole operation allocates per
// simulated cycle, everything included: fabric construction, destination
// tables, round packing, FIFOs, counters, the output tensor. When the
// sources built every item from fresh slices the three flexible rows read
// 10 352, 13 434 and 698 B/cycle; with destination tables and item buffers
// they read 246, 762 and 25; with the operand FIFOs as rings cut from one
// allocation, fixed psum latches and flat SIGMA round tables they read 86,
// 337 and 9.2 when written down, and 47, 192 and 5.4 when re-measured
// later. With 16-byte packets (48-byte deliveries in the DN ring), step
// deliveries built once per shape and VNs held as switch runs they read
// 38.5, 187 and 4.6; with every SIGMA round's groups in one array, 38.5,
// 186 and 4.6 now. Each budget leaves about half on top of that:
// set-up has a little room to grow under it; operand FIFOs that grow with
// traffic again, or an allocation per compute step, do not. The rigid runners
// allocate only per layer (im2col operands and C; SNAPEA's filter arrays,
// index table and sort keys): they read 47 and 15 B/cycle, and their budgets
// leave about a quarter on top — one sort buffer per filter would put the
// SNAPEA row near 30.
func TestOpAllocationBudget(t *testing.T) {
	starved := config.MAERILike(128, 64)
	starved.Preloaded = true
	starved.DRAM.BandwidthGBs = 0.25
	starved.DRAM.Modules = 1

	pw, ex := mobilenetsPW, squeezenetExpand
	// AlexNet conv3 at 1/8 of its channels.
	a3 := tensor.ConvShape{R: 3, S: 3, C: 32, G: 1, K: 48, N: 1, X: 13, Y: 13, Stride: 1, Padding: 1}

	cases := []struct {
		name   string
		hw     config.Hardware
		budget float64 // bytes per simulated cycle
		run    func(acc *Accelerator) (*stats.Run, error)
	}{
		{"mobilenets-pw/maeri", config.MAERILike(128, 64), 58, func(acc *Accelerator) (*stats.Run, error) {
			_, run, err := acc.RunConv(randTensor(1, 1, pw.C, pw.X, pw.Y), randTensor(2, pw.K, pw.C, 1, 1), pw, "pw3")
			return run, err
		}},
		{"squeezenet-expand/sigma", config.SIGMALike(128, 64), 279, func(acc *Accelerator) (*stats.Run, error) {
			_, run, err := acc.RunConv(randTensor(1, 1, ex.C, ex.X, ex.Y), squeezenetExpandWeights(), ex, "fire4_expand3x3")
			return run, err
		}},
		{"mobilenets-pw/tpu", config.TPULike(256), 60, func(acc *Accelerator) (*stats.Run, error) {
			_, run, err := acc.RunConv(randTensor(1, 1, pw.C, pw.X, pw.Y), randTensor(2, pw.K, pw.C, 1, 1), pw, "pw3")
			return run, err
		}},
		{"alexnet-conv3/snapea", config.SNAPEALike(64, 64), 20, func(acc *Accelerator) (*stats.Run, error) {
			_, run, err := acc.RunConv(randTensor(1, 1, a3.C, a3.X, a3.Y), randTensor(2, a3.K, a3.C, 3, 3), a3, "conv3")
			return run, err
		}},
		{"gemm-starved/maeri", starved, 7, func(acc *Accelerator) (*stats.Run, error) {
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
// still right. A GEMM runs on the convolution source, so the "conv" case
// covers it.
func TestSharedTablesSurviveFullQueue(t *testing.T) {
	maeri := config.MAERILike(128, 1)
	maeri.Preloaded = true
	sigma := config.SIGMALike(64, 1)
	sigma.Preloaded = true

	cs := tensor.ConvShape{R: 3, S: 3, C: 6, G: 1, K: 8, N: 1, X: 12, Y: 13, Stride: 1, Padding: 1}
	in, w := randTensor(1, 1, cs.C, cs.X, cs.Y), randTensor(2, cs.K, cs.C, cs.R, cs.S)
	conv := newConvSource(in, w, cs, convTile(cs, 2, 2, 1, 3, 3), true, maeri.MSSize)
	wantConv, err := tensor.Conv2D(in, w, cs)
	if err != nil {
		t.Fatal(err)
	}

	A, B := randTensor(3, 20, 24), randTensor(4, 24, 300)
	wantSpMM, err := tensor.MatMul(A, B)
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
			for _, step := range b {
				dests := make([][]int, len(step.deliv))
				for i := range step.deliv {
					dests[i] = step.deliv[i].Dests
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
		sigmaTables = append(sigmaTables, [][]int{rounds[i].dests}, members)
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
		{"sigma", sigma, flexOp{op: "SpMM", src: spmm, rounds: spmm.roundVNs(), sumOut: true, outShape: []int{20, 300}},
			sigmaTables, wantSpMM},
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
