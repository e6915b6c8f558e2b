package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/comp"
	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/mapper"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// drainSource exhausts a source and returns all items. It keeps them past
// the next Next(), so it copies the slices the source will refill; Dests are
// per-operation tables and stay shared.
func drainSource(t *testing.T, src source, max int) []workItem {
	t.Helper()
	var items []workItem
	for i := 0; i < max; i++ {
		item, ok := src.Next()
		if !ok {
			return items
		}
		item.ReloadSet = slices.Clone(item.ReloadSet)
		item.Deliveries = slices.Clone(item.Deliveries)
		item.Jobs = slices.Clone(item.Jobs)
		items = append(items, item)
	}
	t.Fatalf("source did not exhaust within %d items", max)
	return nil
}

// checkScheduleInvariants verifies the generated schedule is well formed:
// every output index receives exactly one Last job, job expectations are
// positive, and every delivery has at least one destination.
func checkScheduleInvariants(t *testing.T, items []workItem, wantOutputs int) {
	t.Helper()
	lastSeen := map[int]int{}
	for ii, item := range items {
		for _, d := range item.Deliveries {
			if len(d.Dests) == 0 {
				t.Fatalf("item %d: delivery with no destinations", ii)
			}
		}
		for _, j := range item.Jobs {
			if j.Expect <= 0 {
				t.Fatalf("item %d: job with expect %d", ii, j.Expect)
			}
			if j.Last {
				lastSeen[j.OutIdx]++
			}
		}
	}
	if len(lastSeen) != wantOutputs {
		t.Fatalf("%d outputs receive a Last job, want %d", len(lastSeen), wantOutputs)
	}
	for idx, n := range lastSeen {
		if n != 1 {
			t.Fatalf("output %d finalized %d times", idx, n)
		}
	}
}

func randTensor(seed uint64, shape ...int) *tensor.Tensor {
	rng := dnn.NewRNG(seed)
	t := tensor.New(shape...)
	for i, d := 0, t.Data(); i < len(d); i++ {
		d[i] = float32(rng.Normal())
	}
	return t
}

func TestGEMMSourceScheduleInvariants(t *testing.T) {
	hw := config.MAERILike(64, 16)
	for _, dims := range [][3]int{{4, 4, 4}, {10, 3, 130}, {1, 1, 1}, {7, 20, 64}} {
		m, n, k := dims[0], dims[1], dims[2]
		A := randTensor(1, m, k)
		B := randTensor(2, k, n)
		tile, err := mapper.PickGEMM(&hw, m, n, k)
		if err != nil {
			t.Fatal(err)
		}
		src, err := gemmConvSource(A, B, tile, hw.MSSize)
		if err != nil {
			t.Fatal(err)
		}
		items := drainSource(t, src, 1_000_000)
		checkScheduleInvariants(t, items, m*n)

		// Weight items are barriers; stream items are not.
		for _, item := range items {
			hasWeights := false
			for _, d := range item.Deliveries {
				if d.Pkt.Kind == comp.WeightPkt {
					hasWeights = true
				}
			}
			if hasWeights != item.Barrier {
				t.Fatalf("dims %v: weight/barrier mismatch", dims)
			}
		}
	}
}

func TestConvSourceScheduleInvariants(t *testing.T) {
	hw := config.MAERILike(64, 16)
	cases := []tensor.ConvShape{
		{R: 3, S: 3, C: 4, G: 1, K: 6, N: 1, X: 8, Y: 8, Stride: 1, Padding: 1},
		{R: 1, S: 1, C: 16, G: 1, K: 3, N: 1, X: 5, Y: 5, Stride: 1},
		{R: 3, S: 3, C: 4, G: 4, K: 4, N: 1, X: 6, Y: 6, Stride: 1, Padding: 1},
		{R: 5, S: 5, C: 2, G: 1, K: 2, N: 1, X: 9, Y: 9, Stride: 2, Padding: 2},
	}
	for _, cs := range cases {
		in := randTensor(3, 1, cs.C, cs.X, cs.Y)
		w := randTensor(4, cs.K, cs.C/cs.G, cs.R, cs.S)
		tile, err := mapper.PickConv(&hw, cs)
		if err != nil {
			t.Fatal(err)
		}
		src := newConvSource(in, w, cs, tile, true, hw.MSSize)
		items := drainSource(t, src, 1_000_000)
		checkScheduleInvariants(t, items, cs.K*cs.OutX()*cs.OutY())
	}
}

func TestConvSourceForwardingOnlyWithinRows(t *testing.T) {
	cs := tensor.ConvShape{R: 3, S: 3, C: 1, G: 1, K: 1, N: 1, X: 8, Y: 8, Stride: 1}
	hw := config.MAERILike(32, 8)
	in := randTensor(5, 1, 1, 8, 8)
	w := randTensor(6, 1, 1, 3, 3)
	tile, err := mapper.PickConv(&hw, cs)
	if err != nil {
		t.Fatal(err)
	}
	src := newConvSource(in, w, cs, tile, true, hw.MSSize)
	items := drainSource(t, src, 100000)
	var forwarded, total int
	for _, item := range items {
		for _, d := range item.Deliveries {
			if d.Pkt.Kind != comp.InputPkt {
				continue
			}
			total++
			if d.Forward {
				forwarded++
			}
		}
	}
	if forwarded == 0 {
		t.Error("stride-1 sliding window produced no forwarded deliveries")
	}
	if forwarded >= total {
		t.Error("every delivery forwarded — the new-column traffic vanished")
	}

	// With forwarding disabled, nothing is marked Forward.
	src2 := newConvSource(in, w, cs, tile, false, hw.MSSize)
	for _, item := range drainSource(t, src2, 100000) {
		for _, d := range item.Deliveries {
			if d.Forward {
				t.Fatal("Forward delivery from a non-forwarding source")
			}
		}
	}
}

func TestSigmaSourceGenerations(t *testing.T) {
	A := randTensor(7, 6, 10)
	csr, err := tensor.ToCSR(A)
	if err != nil {
		t.Fatal(err)
	}
	rounds := buildSigmaRounds(csr, 16, 0, 0)
	if len(rounds) < 2 {
		t.Skip("need multiple rounds for this check")
	}
	B := randTensor(8, 10, 3)
	src := newSigmaSource(rounds, B)
	gens := map[uint32]bool{}
	for {
		item, ok := src.Next()
		if !ok {
			break
		}
		for _, d := range item.Deliveries {
			if d.Pkt.Gen == 0 {
				t.Fatal("sparse delivery without a generation tag")
			}
			gens[d.Pkt.Gen] = true
		}
		for _, j := range item.Jobs {
			if j.Gen == 0 || j.Gen != item.Deliveries[0].Pkt.Gen {
				t.Fatalf("sparse job of generation %d in a step of generation %d", j.Gen, item.Deliveries[0].Pkt.Gen)
			}
			if !j.Last {
				t.Fatal("sparse jobs must be terminal (GB-side accumulation)")
			}
		}
	}
	if len(gens) != len(rounds) {
		t.Errorf("%d generations for %d rounds", len(gens), len(rounds))
	}
}

// TestSeqWrapChangesNothing runs a convolution and an SpMM twice: with the
// source's step counter starting at 0, and starting just below 2³², so the
// step numbers wrap mid-run (comp.Packet.Seq). Outputs, cycles and the
// counter file must be identical: products are matched to reductions by
// equality on the wrapped step number alone.
func TestSeqWrapChangesNothing(t *testing.T) {
	maeri := config.MAERILike(128, 16)
	maeri.Preloaded = true
	sigma := config.SIGMALike(64, 16)
	sigma.Preloaded = true
	cs := tensor.ConvShape{R: 3, S: 3, C: 4, G: 1, K: 4, N: 1, X: 8, Y: 8, Stride: 1, Padding: 1}
	in, w := randTensor(1, 1, cs.C, cs.X, cs.Y), randTensor(2, cs.K, cs.C, cs.R, cs.S)
	A, B := randTensor(3, 20, 24), randTensor(4, 24, 30)
	csr, err := tensor.ToCSR(A)
	if err != nil {
		t.Fatal(err)
	}
	// seq reads the step counter of the source op built last.
	var seq *uint32
	cases := []struct {
		name string
		hw   config.Hardware
		// op builds the operation with its source's step counter at start.
		op func(start uint32) flexOp
	}{
		{"conv", maeri, func(start uint32) flexOp {
			src := newConvSource(in, w, cs, convTile(cs, 2, 2, 1, 3, 2), true, maeri.MSSize)
			src.seq, seq = start, &src.seq
			return flexOp{op: "CONV", src: src, vns: src.vns(), outShape: []int{1, cs.K, src.xo, src.yo}}
		}},
		{"sigma", sigma, func(start uint32) flexOp {
			src := newSigmaSource(buildSigmaRounds(csr, sigma.MSSize, sched.NS, 0x51634), B)
			src.seq, seq = start, &src.seq
			return flexOp{op: "SpMM", src: src, rounds: src.roundVNs(), sumOut: true, outShape: []int{20, 30}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var outs [2][]float32
			var files [2]string
			for i, start := range []uint32{0, math.MaxUint32 - 5} {
				out, run, err := runFlex(sim.NewCtx(&tc.hw), tc.op(start))
				if err != nil {
					t.Fatal(err)
				}
				outs[i], files[i] = out.Data(), fmt.Sprintf("cycles=%d\n%s", run.Cycles, run.CounterFile())
				if i == 1 && *seq >= start {
					t.Fatalf("the step counter ended at %d: it never wrapped", *seq)
				}
			}
			if !slices.Equal(outs[0], outs[1]) {
				t.Error("outputs differ when the step counter wraps")
			}
			if files[0] != files[1] {
				t.Errorf("run records differ when the step counter wraps:\n--- from 0 ---\n%s--- across the wrap ---\n%s", files[0], files[1])
			}
		})
	}
}
