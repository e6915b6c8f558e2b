// Package mapper selects tile configurations — the role of STONNE's Mapper
// block in Figure 2(a), inspired by mRNA: given the layer shape and the
// hardware, it picks the Tile(T_R, T_S, T_C, T_G, T_K, T_N, T_X', T_Y')
// partition (Section IV-B) and derives the virtual-neuron arrangement the
// Configuration Unit programs into the fabric.
package mapper

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/tensor"
)

// Tile is the dense-controller tile descriptor of Section IV-B.
type Tile struct {
	TR, TS, TC      int // dot-product slice mapped per virtual neuron
	TG, TK, TN      int // parallel groups / filters / batch
	TXp, TYp        int // parallel output positions
	VNSize          int // TR·TS·TC
	NumVNs          int // TG·TK·TN·TXp·TYp
	Folds           int // sequential iterations to cover the full dot product
	UsedMultipliers int
}

// Validate checks internal consistency against the layer it was built for.
// Every error wraps config.ErrRefused.
func (t Tile) Validate(cs tensor.ConvShape) error {
	err := cs.Validate()
	switch {
	case err != nil:
	case t.TR < 1 || t.TS < 1 || t.TC < 1 || t.TG < 1 || t.TK < 1 || t.TN < 1 || t.TXp < 1 || t.TYp < 1:
		err = fmt.Errorf("mapper: tile has non-positive dimension: %+v", t)
	case t.VNSize != t.TR*t.TS*t.TC:
		err = fmt.Errorf("mapper: VNSize %d != TR·TS·TC %d", t.VNSize, t.TR*t.TS*t.TC)
	case t.NumVNs != t.TG*t.TK*t.TN*t.TXp*t.TYp:
		err = fmt.Errorf("mapper: NumVNs %d != product of parallel dims %d",
			t.NumVNs, t.TG*t.TK*t.TN*t.TXp*t.TYp)
	case t.TR > cs.R || t.TS > cs.S || t.TC > cs.C/cs.G:
		err = fmt.Errorf("mapper: tile %+v exceeds filter dims of %+v", t, cs)
	case t.Folds < 1:
		err = fmt.Errorf("mapper: folds must be >= 1, got %d", t.Folds)
	default:
		return nil
	}
	return fmt.Errorf("%w: %w", err, config.ErrRefused)
}

// PickConv chooses a convolution tile for the hardware: the full filter
// spatial extent when it fits (T_R=R, T_S=S), the largest channel slice
// that keeps VNSize within the fabric, and the remaining multipliers spent
// on parallel output positions, then parallel filters.
func PickConv(h *config.Hardware, cs tensor.ConvShape) (Tile, error) {
	if err := cs.Validate(); err != nil {
		return Tile{}, fmt.Errorf("%w: %w", err, config.ErrRefused)
	}
	if h.MSSize <= 0 {
		return Tile{}, fmt.Errorf("mapper: fabric has no multiplier switches (MSSize %d): %w", h.MSSize, config.ErrRefused)
	}
	cg := cs.C / cs.G
	kg := cs.K / cs.G
	t := Tile{TG: 1, TN: 1}

	window := cs.R * cs.S
	switch {
	case window > h.MSSize:
		// Filter window alone exceeds the fabric: fold over the window.
		t.TR, t.TS, t.TC = cs.R, cs.S, 1
		t.VNSize = h.MSSize
		t.Folds = ceilDiv(window*cg, h.MSSize)
		t.NumVNs = 1
		t.TK, t.TXp, t.TYp = 1, 1, 1
		t.UsedMultipliers = h.MSSize
		return t, nil
	default:
		t.TR, t.TS = cs.R, cs.S
		t.TC = h.MSSize / window
		if t.TC > cg {
			t.TC = cg
		}
		if t.TC < 1 {
			t.TC = 1
		}
		t.VNSize = t.TR * t.TS * t.TC
		t.Folds = ceilDiv(cg, t.TC)
	}

	// Spend the remaining switches on parallel virtual neurons: output
	// positions first (maximizes sliding-window reuse on a Linear MN),
	// then filters.
	avail := h.MSSize / t.VNSize
	yo := cs.OutY()
	t.TYp = min(avail, yo)
	avail /= t.TYp
	t.TXp = 1
	t.TK = min(avail, kg)
	if t.TK < 1 {
		t.TK = 1
	}
	t.NumVNs = t.TG * t.TK * t.TN * t.TXp * t.TYp
	t.UsedMultipliers = t.NumVNs * t.VNSize
	return t, nil
}

// GEMMShape is the 1×1 convolution an M×N×K GEMM runs as on the dense
// controller: the m rows of A are filters over k channels, and the n
// columns of B are the output positions of one 1×n image.
func GEMMShape(m, n, k int) tensor.ConvShape {
	return tensor.ConvShape{R: 1, S: 1, C: k, G: 1, K: m, N: 1, X: 1, Y: n, Stride: 1}
}

// PickGEMM chooses the tile of GEMMShape(m, n, k): the widest channel (K)
// slice that fits, remaining multipliers spent on parallel filters (output
// rows sharing a streamed column), then parallel positions (output
// columns sharing a stationary row).
func PickGEMM(h *config.Hardware, m, n, k int) (Tile, error) {
	if m <= 0 || n <= 0 || k <= 0 {
		return Tile{}, fmt.Errorf("mapper: non-positive GEMM dims %d×%d×%d: %w", m, n, k, config.ErrRefused)
	}
	if h.MSSize <= 0 {
		return Tile{}, fmt.Errorf("mapper: fabric has no multiplier switches (MSSize %d): %w", h.MSSize, config.ErrRefused)
	}
	// The slice never exceeds the fabric, so at least one VN of each kind fits.
	tc := min(k, h.MSSize)
	avail := h.MSSize / tc
	tk := min(avail, m)
	typ := min(avail/tk, n)
	return Tile{
		TR: 1, TS: 1, TC: tc, TG: 1, TK: tk, TN: 1, TXp: 1, TYp: typ,
		VNSize: tc, NumVNs: tk * typ, Folds: ceilDiv(k, tc), UsedMultipliers: tk * typ * tc,
	}, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
