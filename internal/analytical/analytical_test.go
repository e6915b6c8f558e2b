package analytical

import (
	"testing"
	"testing/quick"
)

func TestSystolicOS(t *testing.T) {
	// One 16×16 tile at K=32: K + 2(P-1) cycles.
	got, err := SystolicOS(16, 16, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got != 62 {
		t.Errorf("cycles = %v, want 62", got)
	}
	// Four tiles.
	got, _ = SystolicOS(32, 32, 16, 16)
	if got != 4*46 {
		t.Errorf("tiled cycles = %v, want %d", got, 4*46)
	}
	if _, err := SystolicOS(0, 1, 1, 16); err == nil {
		t.Error("zero dim accepted")
	}
}

func TestMAERIConvFullBandwidthIsComputeBound(t *testing.T) {
	p := MAERIConvParams{
		K: 6, C: 6, G: 1, R: 3, S: 3, Xo: 5, Yo: 5,
		TK: 1, TYp: 3, TC: 1, MSSize: 32, Bandwidth: 1 << 20,
	}
	got, err := MAERIConv(p)
	if err != nil {
		t.Fatal(err)
	}
	steps := 6.0 * 6 * 5 * 2 // K × folds × Xo × ceil(Yo/TYp)
	if got < steps || got > steps+10 {
		t.Errorf("cycles = %v, want ≈ %v (compute bound)", got, steps)
	}
}

func TestMAERIConvBandwidthBound(t *testing.T) {
	// A 1×1 convolution has little data reuse, so the volume term can
	// dominate the step count once bandwidth shrinks.
	base := MAERIConvParams{
		K: 4, C: 512, G: 1, R: 1, S: 1, Xo: 4, Yo: 4,
		TK: 1, TYp: 1, TC: 128, MSSize: 128, Bandwidth: 128,
	}
	fast, err := MAERIConv(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Bandwidth = 4
	slow, err := MAERIConv(base)
	if err != nil {
		t.Fatal(err)
	}
	if slow <= fast {
		t.Errorf("bandwidth reduction did not increase estimate: %v vs %v", slow, fast)
	}
	if _, err := MAERIConv(MAERIConvParams{}); err == nil {
		t.Error("empty params accepted")
	}
}

// A GEMM is the 1×1 convolution with K = M filters, C = K channels and a
// 1×N output.
func TestMAERIGEMM(t *testing.T) {
	got, err := MAERIConv(MAERIConvParams{
		K: 64, C: 128, G: 1, R: 1, S: 1, Xo: 1, Yo: 64,
		TK: 1, TYp: 1, TC: 128, MSSize: 128, Bandwidth: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 4096+7+2 { // steps = 64·64, compute bound; fill log2(128) + 2
		t.Errorf("cycles %v", got)
	}
}

func TestSIGMASparsityMonotoneProperty(t *testing.T) {
	// More stationary sparsity → fewer estimated cycles, monotonically.
	f := func(seed int64) bool {
		s := uint64(seed)*2654435761 + 29
		next := func(lo, hi int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return lo + int(s%uint64(hi-lo+1))
		}
		p := SIGMAParams{
			M: next(8, 256), N: next(1, 128), K: next(8, 512),
			MSSize: 128, Bandwidth: 128,
		}
		prev := 1e18
		for _, sp := range []float64{0, 0.3, 0.6, 0.9} {
			p.SparsityA = sp
			got, err := SIGMA(p)
			if err != nil {
				return false
			}
			if got > prev {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSIGMAErrors(t *testing.T) {
	if _, err := SIGMA(SIGMAParams{M: 1, N: 1, K: 1, SparsityA: 1.0, MSSize: 8, Bandwidth: 8}); err == nil {
		t.Error("sparsity 1.0 accepted")
	}
	if _, err := SIGMA(SIGMAParams{}); err == nil {
		t.Error("zero params accepted")
	}
}
