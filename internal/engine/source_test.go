package engine

import (
	"slices"
	"testing"

	"repro/internal/comp"
	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/mapper"
	"repro/internal/tensor"
)

// drainSource exhausts a source and returns all items. It keeps them past
// the next Next(), so it copies the slices the source will refill; Dests and
// Members are per-operation tables and stay shared.
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
			if j.Members == nil {
				t.Fatal("sparse job without a member snapshot")
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
