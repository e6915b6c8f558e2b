package stonne

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/mapper"
)

// The fuzz targets feed raw, unvalidated parameters into the dispatch
// surface. The invariants are: (1) nothing panics — invalid inputs come
// back as errors; (2) whenever a simulation does run, its output verifies
// against the CPU reference under the architecture's contract. Valid inputs
// run as a Case, through RunSeededOp with self-check on.

// fuzzArchs maps a fuzzed pick onto the four presets, in the order the seed
// entries below were written for.
var fuzzArchs = []string{"tpu", "maeri", "sigma", "snapea"}

func FuzzGEMMDispatch(f *testing.F) {
	f.Add(uint8(0), uint16(16), uint16(16), uint16(4), uint16(4), uint16(4), uint64(1))
	f.Add(uint8(1), uint16(16), uint16(8), uint16(1), uint16(1), uint16(1), uint64(2))
	f.Add(uint8(2), uint16(64), uint16(32), uint16(33), uint16(5), uint16(17), uint64(3))
	f.Add(uint8(3), uint16(8), uint16(4), uint16(7), uint16(20), uint16(3), uint64(4))
	f.Add(uint8(1), uint16(0), uint16(0), uint16(2), uint16(2), uint16(2), uint64(5))  // broken fabric
	f.Add(uint8(0), uint16(17), uint16(3), uint16(2), uint16(2), uint16(2), uint64(6)) // non-square systolic
	f.Fuzz(func(t *testing.T, archPick uint8, ms, bw, m, n, k uint16, seed uint64) {
		c := Case{
			Arch: fuzzArchs[int(archPick)%len(fuzzArchs)], MS: int(ms) % 512, BW: int(bw) % 128,
			Op:   SeededOp{Op: "gemm", M: 1 + int(m)%32, N: 1 + int(n)%32, K: 1 + int(k)%48},
			Seed: seed,
		}
		hw, err := c.HW()
		if err != nil {
			t.Fatal(err)
		}
		// CreateInstance re-validates the preset, so out-of-spec values must
		// surface as errors, never panics.
		if _, err := CreateInstance(hw); err != nil {
			if hw.Validate() == nil && c.MS >= 4 {
				t.Fatalf("valid config rejected: %+v: %v", hw, err)
			}
			return
		}
		runVerified(t, c)
	})
}

// runVerified runs c and fails t if the op ran but its output did not
// verify, including an output the comparison could not read (wrong shape,
// nil). Any other error is a constraint the dispatch refused before the
// simulation ran.
func runVerified(t *testing.T, c Case) {
	rep, err := c.Run()
	if errors.Is(err, errSelfCheck) {
		t.Fatal(err)
	}
	if rep != nil && !rep.OK() {
		t.Fatalf("%s: %s", c, rep)
	}
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
		cs := ConvShape{
			R: clampDim(r), S: clampDim(s), C: clampDim(c), G: clampDim(g),
			K: clampDim(k), N: clampDim(n) % 4, X: clampDim(x), Y: clampDim(y),
			Stride: clampDim(stride), Padding: clampDim(pad) % 4,
		}
		tc := Case{Arch: "maeri", MS: int(ms) % 256, BW: int(bw) % 64, Op: SeededOp{Op: "conv", Conv: &cs}, Seed: seed}
		hw, err := tc.HW()
		if err != nil {
			t.Fatal(err)
		}
		// The mapper must never panic, whatever the shape — degenerate
		// shapes (zero groups, negative dims, windows beyond the fabric)
		// come back as errors.
		tile, tileErr := mapper.PickConv(&hw, cs)
		if tileErr == nil {
			if err := cs.Validate(); err != nil {
				t.Fatalf("PickConv accepted an invalid shape %+v: %v", cs, err)
			}
		}
		if cs.Validate() != nil {
			// SeededOp.Check stops an invalid shape before the engine sees it,
			// so the engine's own validation is fuzzed directly: it must
			// reject, not panic.
			acc, err := engine.New(hw)
			if err != nil {
				return
			}
			in, w := NewTensor(1, 1, 1, 1), NewTensor(1, 1, 1, 1)
			if _, _, err := acc.RunConv(in, w, cs, "fuzz"); err == nil {
				t.Fatalf("invalid shape %+v accepted by RunConv", cs)
			}
			return
		}
		if tileErr == nil && tile.UsedMultipliers <= hw.MSSize && tile.TG == 1 && tile.TN == 1 {
			tc.Op.Tile = &tile
		}
		runVerified(t, tc)
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
