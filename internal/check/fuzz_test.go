package check

import (
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/mapper"
	"repro/internal/tensor"
)

// The fuzz targets feed raw, unvalidated parameters into the dispatch
// surface. The invariants are: (1) nothing panics — invalid inputs come
// back as errors; (2) whenever a simulation does run, its output verifies
// against the CPU reference under the architecture's contract.

// fuzzHW builds a hardware configuration from raw fuzz bytes via the
// preset table; engine.New re-validates it, so out-of-spec values must
// surface as errors, never panics.
func fuzzHW(archPick uint8, ms, bw uint16) (config.Hardware, bool) {
	presets := []func(int, int) config.Hardware{
		func(m, b int) config.Hardware { return config.TPULike(m) },
		config.MAERILike,
		config.SIGMALike,
		config.SNAPEALike,
	}
	hw := presets[int(archPick)%len(presets)](int(ms)%512, int(bw)%128)
	return hw, hw.Validate() == nil
}

func FuzzGEMMDispatch(f *testing.F) {
	f.Add(uint8(0), uint16(16), uint16(16), uint16(4), uint16(4), uint16(4), uint64(1))
	f.Add(uint8(1), uint16(16), uint16(8), uint16(1), uint16(1), uint16(1), uint64(2))
	f.Add(uint8(2), uint16(64), uint16(32), uint16(33), uint16(5), uint16(17), uint64(3))
	f.Add(uint8(3), uint16(8), uint16(4), uint16(7), uint16(20), uint16(3), uint64(4))
	f.Add(uint8(1), uint16(0), uint16(0), uint16(2), uint16(2), uint16(2), uint64(5))  // broken fabric
	f.Add(uint8(0), uint16(17), uint16(3), uint16(2), uint16(2), uint16(2), uint64(6)) // non-square systolic
	f.Fuzz(func(t *testing.T, archPick uint8, ms, bw, m, n, k uint16, seed uint64) {
		hw, valid := fuzzHW(archPick, ms, bw)
		acc, err := engine.New(hw)
		if err != nil {
			if valid && int(ms)%512 >= 4 {
				t.Fatalf("valid config rejected: %+v: %v", hw, err)
			}
			return
		}
		M, N, K := 1+int(m)%32, 1+int(n)%32, 1+int(k)%48
		r := splitmix{s: seed}
		A, B := randTensor(&r, M, K), randTensor(&r, K, N)
		got, _, err := acc.RunGEMM(A, B, "fuzz")
		if err != nil {
			return // constraint errors are fine; panics are not
		}
		rep, err := VerifyGEMM(hw, A, B, got)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("ms=%d bw=%d %dx%dx%d: %s", hw.MSSize, hw.DNBandwidth, M, N, K, rep)
		}
	})
}

func FuzzConvTile(f *testing.F) {
	f.Add(uint16(16), uint16(8), 3, 3, 4, 1, 4, 1, 8, 8, 1, 1, uint64(1))
	f.Add(uint16(16), uint16(8), 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, uint64(2))
	f.Add(uint16(64), uint16(16), 3, 3, 4, 2, 6, 2, 7, 9, 2, 1, uint64(3))
	f.Add(uint16(16), uint16(8), 0, 3, 4, 0, 4, 1, 8, 8, 1, 0, uint64(4))   // degenerate dims
	f.Add(uint16(16), uint16(8), 3, 3, 4, 1, 4, 1, 8, 8, -1, -1, uint64(5)) // negative stride/pad
	f.Add(uint16(4), uint16(4), 5, 5, 2, 1, 2, 1, 9, 9, 1, 0, uint64(6))    // window exceeds fabric
	// Stride 2 at the edges of the schedule's step shapes. The mapper spends
	// switches on filters only once a whole output row fits, so one tile
	// never has both a short last group and a short last filter block.
	f.Add(uint16(64), uint16(16), 3, 3, 2, 1, 3, 1, 8, 8, 2, 2, uint64(7)) // T_Y'=3 over Y'=5: tail group
	f.Add(uint16(64), uint16(16), 3, 3, 1, 1, 5, 1, 5, 5, 2, 0, uint64(8)) // T_K=3 over K=5: tail filter block
	f.Fuzz(func(t *testing.T, ms, bw uint16, r, s, c, g, k, n, x, y, stride, pad int, seed uint64) {
		cs := tensor.ConvShape{
			R: clampDim(r), S: clampDim(s), C: clampDim(c), G: clampDim(g),
			K: clampDim(k), N: clampDim(n) % 4, X: clampDim(x), Y: clampDim(y),
			Stride: clampDim(stride), Padding: clampDim(pad) % 4,
		}
		hw := config.MAERILike(int(ms)%256, int(bw)%64)
		// The mapper must never panic, whatever the shape — degenerate
		// shapes (zero groups, negative dims, windows beyond the fabric)
		// come back as errors.
		tile, tileErr := mapper.PickConv(&hw, cs)
		if tileErr == nil {
			if err := cs.Validate(); err != nil {
				t.Fatalf("PickConv accepted an invalid shape %+v: %v", cs, err)
			}
		}
		acc, err := engine.New(hw)
		if err != nil {
			return
		}
		if cs.Validate() != nil {
			// Still exercise the dispatch path: it must reject, not panic.
			in, w := tensor.New(1, 1, 1, 1), tensor.New(1, 1, 1, 1)
			if _, _, err := acc.RunConv(in, w, cs, "fuzz"); err == nil {
				t.Fatalf("invalid shape %+v accepted by RunConv", cs)
			}
			return
		}
		rng := splitmix{s: seed}
		in := randTensor(&rng, cs.N, cs.C, cs.X, cs.Y)
		w := randTensor(&rng, cs.K, cs.C/cs.G, cs.R, cs.S)
		var got *tensor.Tensor
		if tileErr == nil && tile.UsedMultipliers <= hw.MSSize && tile.TG == 1 && tile.TN == 1 {
			got, _, err = acc.RunConvTiled(in, w, cs, "fuzz", tile)
		} else {
			got, _, err = acc.RunConv(in, w, cs, "fuzz")
		}
		if err != nil {
			return
		}
		rep, err := VerifyConv(hw, in, w, cs, got)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("ms=%d %+v: %s", hw.MSSize, cs, rep)
		}
	})
}

// clampDim folds an arbitrary fuzzed int into a small shape dimension
// while keeping zero and the sign-flip corner reachable.
func clampDim(v int) int {
	if v < 0 {
		if v == -1 || v == -2 {
			return v // keep small negatives to hit the validation paths
		}
		v = -v
	}
	return v % 9
}

func FuzzSparseRoundTrip(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint64(1), uint8(128))
	f.Add(uint8(1), uint8(1), uint64(2), uint8(0))   // dense single element
	f.Add(uint8(7), uint8(5), uint64(3), uint8(255)) // all-zero matrix
	f.Add(uint8(9), uint8(2), uint64(4), uint8(200)) // mostly-empty rows
	f.Fuzz(func(t *testing.T, rows, cols uint8, seed uint64, sparsity uint8) {
		mr, mc := 1+int(rows)%16, 1+int(cols)%16
		r := splitmix{s: seed}
		a := randTensor(&r, mr, mc)
		prune(&r, a, float64(sparsity)/255)

		csr, err := tensor.ToCSR(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := csr.Validate(); err != nil {
			t.Fatalf("ToCSR produced invalid matrix: %v", err)
		}
		if d, _ := tensor.MaxAbsDiff(csr.Dense(), a); d != 0 {
			t.Fatalf("CSR round trip diff %g", d)
		}

		bm, err := tensor.ToBitmap(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := bm.Validate(); err != nil {
			t.Fatalf("ToBitmap produced invalid matrix: %v", err)
		}
		if d, _ := tensor.MaxAbsDiff(bm.Dense(), a); d != 0 {
			t.Fatalf("bitmap round trip diff %g", d)
		}

		view := bm.ToCSRView()
		if err := view.Validate(); err != nil {
			t.Fatalf("CSR view invalid: %v", err)
		}
		if d, _ := tensor.MaxAbsDiff(view.Dense(), a); d != 0 {
			t.Fatalf("CSR view round trip diff %g", d)
		}

		// SpMM over the encoding must be bit-exact against dense MatMul:
		// both accumulate each row's non-zeros in the same order.
		b := randTensor(&r, mc, 1+int(seed%5))
		got, err := tensor.SpMM(csr, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tensor.MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Compare(got, want, nil, Tolerance{Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("SpMM vs MatMul: %s", rep)
		}
	})
}
