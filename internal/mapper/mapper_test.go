package mapper

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/tensor"
)

func hw(ms, bw int) *config.Hardware {
	h := config.MAERILike(ms, bw)
	return &h
}

func TestPickConvBasic(t *testing.T) {
	cs := tensor.ConvShape{R: 3, S: 3, C: 6, G: 1, K: 6, N: 1, X: 7, Y: 7, Stride: 1}
	tile, err := PickConv(hw(32, 4), cs)
	if err != nil {
		t.Fatal(err)
	}
	if err := tile.Validate(cs); err != nil {
		t.Fatal(err)
	}
	if tile.TR != 3 || tile.TS != 3 {
		t.Errorf("tile does not cover the window: %+v", tile)
	}
	if tile.UsedMultipliers > 32 {
		t.Errorf("tile overflows the fabric: %+v", tile)
	}
	if tile.VNSize*tile.Folds < 3*3*6 {
		t.Errorf("folds do not cover the dot product: %+v", tile)
	}
}

func TestPickConvOversizeWindow(t *testing.T) {
	cs := tensor.ConvShape{R: 11, S: 11, C: 3, G: 1, K: 4, N: 1, X: 32, Y: 32, Stride: 4}
	tile, err := PickConv(hw(64, 16), cs)
	if err != nil {
		t.Fatal(err)
	}
	if tile.VNSize != 64 || tile.NumVNs != 1 {
		t.Errorf("oversize window tile: %+v", tile)
	}
	if tile.Folds*tile.VNSize < 11*11*3 {
		t.Errorf("folds do not cover the window: %+v", tile)
	}
}

func TestPickGEMMBasic(t *testing.T) {
	tile, err := PickGEMM(hw(128, 32), 64, 32, 48)
	if err != nil {
		t.Fatal(err)
	}
	if tile.TC != 48 || tile.Folds != 1 {
		t.Errorf("K slice/folds: %+v", tile)
	}
	if err := tile.Validate(GEMMShape(64, 32, 48)); err != nil {
		t.Error(err)
	}
	if tile.UsedMultipliers > 128 {
		t.Errorf("overflow: %+v", tile)
	}
	if _, err := PickGEMM(hw(128, 32), 0, 1, 1); err == nil {
		t.Error("zero dim accepted")
	}
}

// Property: every generated tile fits the fabric and its folds cover the
// full dot product.
func TestPickGEMMProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := uint64(seed)*2654435761 + 17
		next := func(lo, hi int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return lo + int(s%uint64(hi-lo+1))
		}
		ms := 1 << next(3, 9)
		m, n, k := next(1, 300), next(1, 300), next(1, 1000)
		tile, err := PickGEMM(hw(ms, ms/2), m, n, k)
		if err != nil {
			return false
		}
		return tile.Validate(GEMMShape(m, n, k)) == nil &&
			tile.UsedMultipliers <= ms &&
			tile.TC*tile.Folds >= k &&
			tile.TK <= m && tile.TYp <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPickConvProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := uint64(seed)*0x9e3779b97f4a7c15 + 23
		next := func(lo, hi int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return lo + int(s%uint64(hi-lo+1))
		}
		ms := 1 << next(5, 9)
		r := next(1, 5)
		cs := tensor.ConvShape{
			R: r, S: r, C: next(1, 64), G: 1, K: next(1, 64), N: 1,
			X: next(r, 32), Y: next(r, 32), Stride: next(1, 2), Padding: next(0, 1),
		}
		if cs.Validate() != nil {
			return true // skip invalid random shapes
		}
		tile, err := PickConv(hw(ms, ms/4), cs)
		if err != nil {
			return false
		}
		if tile.Validate(cs) != nil {
			return false
		}
		return tile.UsedMultipliers <= ms && tile.TC*tile.Folds >= cs.C/cs.G
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Regression: a fabric without multiplier switches used to crash both
// pickers with a division by zero inside ceilDiv.
func TestPickersRejectEmptyFabric(t *testing.T) {
	cs := tensor.ConvShape{R: 3, S: 3, C: 4, G: 1, K: 4, N: 1, X: 8, Y: 8, Stride: 1}
	for _, ms := range []int{0, -16} {
		h := hw(16, 4)
		h.MSSize = ms
		if _, err := PickConv(h, cs); err == nil {
			t.Errorf("PickConv accepted MSSize %d", ms)
		}
		if _, err := PickGEMM(h, 4, 4, 4); err == nil {
			t.Errorf("PickGEMM accepted MSSize %d", ms)
		}
	}
}

// Regression: Tile.Validate used to divide by cs.G before checking the
// shape, so a zero-group shape panicked instead of erroring.
func TestTileValidateDegenerateShape(t *testing.T) {
	tile := Tile{TR: 1, TS: 1, TC: 1, TG: 1, TK: 1, TN: 1, TXp: 1, TYp: 1, VNSize: 1, NumVNs: 1, Folds: 1}
	bad := tensor.ConvShape{R: 1, S: 1, C: 4, G: 0, K: 4, N: 1, X: 4, Y: 4, Stride: 1}
	if err := tile.Validate(bad); err == nil {
		t.Error("zero-group shape accepted")
	}
	neg := tensor.ConvShape{R: 1, S: 1, C: -4, G: 1, K: 4, N: 1, X: 4, Y: 4, Stride: 1}
	if err := tile.Validate(neg); err == nil {
		t.Error("negative-channel shape accepted")
	}
}

func TestTileValidateNonPositiveDims(t *testing.T) {
	cs := tensor.ConvShape{R: 3, S: 3, C: 4, G: 1, K: 4, N: 1, X: 8, Y: 8, Stride: 1}
	bad := Tile{TR: 3, TS: 3, TC: 0, TG: 1, TK: 1, TN: 1, TXp: 1, TYp: 1, VNSize: 0, NumVNs: 1, Folds: 1}
	if err := bad.Validate(cs); err == nil {
		t.Error("zero-TC tile accepted")
	}
	neg := Tile{TR: 3, TS: 3, TC: 1, TG: 1, TK: -1, TN: 1, TXp: 1, TYp: -1, VNSize: 9, NumVNs: 1, Folds: 1}
	if err := neg.Validate(cs); err == nil {
		t.Error("negative-parallelism tile accepted")
	}
}

func TestTileValidate(t *testing.T) {
	cs := tensor.ConvShape{R: 3, S: 3, C: 4, G: 1, K: 4, N: 1, X: 8, Y: 8, Stride: 1}
	bad := Tile{TR: 3, TS: 3, TC: 1, TG: 1, TK: 1, TN: 1, TXp: 1, TYp: 1, VNSize: 10, NumVNs: 1, Folds: 4}
	if err := bad.Validate(cs); err == nil {
		t.Error("VNSize mismatch accepted")
	}
	bad2 := Tile{TR: 5, TS: 3, TC: 1, TG: 1, TK: 1, TN: 1, TXp: 1, TYp: 1, VNSize: 15, NumVNs: 1, Folds: 4}
	if err := bad2.Validate(cs); err == nil {
		t.Error("TR > R accepted")
	}
}
