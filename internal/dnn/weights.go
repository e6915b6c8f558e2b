package dnn

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tensor"
)

// RNG is a splitmix64-based PRNG. We carry our own generator rather than
// math/rand so that weight tensors — and therefore every sparse cycle count
// in EXPERIMENTS.md — are reproducible byte-for-byte across Go releases.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded from s.
func NewRNG(s uint64) *RNG { return &RNG{state: s} }

// Uint64 returns the next 64 random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Normal returns a standard normal sample (Box–Muller).
func (r *RNG) Normal() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// FillNormal overwrites d with standard normal draws from rng, one per
// element in index order; with relu, negative draws become 0 (post-ReLU
// activation statistics). It writes every seeded operand stream but the
// weights, so a stream is fixed by its seed, its length and relu.
func FillNormal(rng *RNG, d []float32, relu bool) {
	for i := range d {
		v := rng.Normal()
		if relu && v < 0 {
			v = 0
		}
		d[i] = float32(v)
	}
}

// Weights holds every trained tensor of a model keyed by layer name.
type Weights struct {
	ByLayer map[string]*tensor.Tensor
}

// LayerNames returns the keys of ByLayer in sorted order.
func (w *Weights) LayerNames() []string {
	names := make([]string, 0, len(w.ByLayer))
	for name := range w.ByLayer {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// InitWeights generates deterministic He-initialized weights for every
// weighted layer of the model (Conv and Linear; GEMM layers are
// activation×activation and carry no weights).
//
// Two per-filter statistics of really-trained, pruned networks are
// emulated, because data-dependent results hinge on them:
//
//   - per-filter magnitude scale, log-uniform in [0.5, 2]: under global
//     magnitude pruning this yields the strongly non-uniform per-filter
//     non-zero counts of Fig. 7b, which the LFF scheduling study exploits;
//   - a selective negative bias on half the filters: trained conv filters
//     act as detectors whose outputs are deeply negative off-pattern, the
//     property SNAPEA's early termination monetizes. Purely symmetric
//     random weights would cross zero only near the end of the dot
//     product and hide the effect.
func InitWeights(m *Model, seed uint64) *Weights {
	w := &Weights{ByLayer: make(map[string]*tensor.Tensor)}
	for i := range m.Layers {
		l := &m.Layers[i]
		rng := NewRNG(seed ^ hashName(m.Name+"/"+l.Name))
		fill := func(t *tensor.Tensor, rows, cols int, std float64) {
			d := t.Data()
			for r := 0; r < rows; r++ {
				scale := math.Exp((rng.Float64()*2 - 1) * math.Ln2) // [0.5, 2]
				shift := 0.0
				if rng.Float64() < 0.5 {
					shift = -0.2 * scale * std // selective filter
				}
				for c := 0; c < cols; c++ {
					d[r*cols+c] = float32(rng.Normal()*scale*std + shift)
				}
			}
		}
		switch l.Kind {
		case Conv:
			cs := l.Conv
			t := tensor.New(cs.K, cs.C/cs.G, cs.R, cs.S)
			fanIn := float64(cs.R * cs.S * cs.C / cs.G)
			fill(t, cs.K, cs.C/cs.G*cs.R*cs.S, math.Sqrt(2/fanIn))
			w.ByLayer[l.Name] = t
		case Linear:
			t := tensor.New(l.Out, l.In)
			fill(t, l.Out, l.In, math.Sqrt(2/float64(l.In)))
			w.ByLayer[l.Name] = t
		}
	}
	return w
}

func hashName(s string) uint64 {
	// FNV-1a, inlined to avoid importing hash/fnv for four lines.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Prune applies unstructured magnitude pruning (Zhu & Gupta style) to every
// weighted layer so that the global weight sparsity of the model reaches the
// target ratio in [0,1). Per-layer ratios equal the global ratio, matching
// the uniform unstructured scheme the paper cites. Layers are pruned in name
// order, so a model with several bad layers always reports the same one.
func (w *Weights) Prune(target float64) error {
	if target < 0 || target >= 1 {
		return fmt.Errorf("dnn: pruning target %.2f out of [0,1)", target)
	}
	if target == 0 {
		return nil
	}
	hist := new([1 << 16]uint32)
	for _, name := range w.LayerNames() {
		if err := pruneTensor(w.ByLayer[name], target, hist); err != nil {
			return fmt.Errorf("dnn: pruning %s: %w", name, err)
		}
	}
	return nil
}

// magKey orders float32 values by magnitude: for non-NaN a and b,
// magKey(a) <= magKey(b) exactly when |a| <= |b|. ±0 share key 0,
// subnormals sit below the normals, and +Inf is the largest non-NaN key.
func magKey(v float32) uint32 { return math.Float32bits(v) &^ (1 << 31) }

const infKey = 0x7f800000 // magKey(±Inf); every larger key is a NaN

// pruneTensor zeroes the drop = round(target·n) smallest-magnitude values of
// t, but never all n. The threshold is the drop-th smallest magKey, found by
// a two-pass radix select: one histogram over the key's high 16 bits picks
// the threshold's bucket, a second over the low 16 bits of that bucket's
// keys picks the threshold itself; hist is overwritten. Ties at the threshold
// are zeroed in index order until drop values are gone. A NaN weight is an
// error, reported before anything is written.
func pruneTensor(t *tensor.Tensor, target float64, hist *[1 << 16]uint32) error {
	d := t.Data()
	n := len(d)
	drop := min(int(math.Round(target*float64(n))), n-1)
	clear(hist[:])
	for i, v := range d {
		k := magKey(v)
		if k > infKey {
			return fmt.Errorf("NaN weight at index %d", i)
		}
		hist[k>>16]++
	}
	if drop <= 0 {
		return nil
	}
	rank := uint32(drop) // the threshold is the rank-th smallest key from bucket hi on
	hi := uint32(0)
	for ; rank > hist[hi]; hi++ {
		rank -= hist[hi]
	}
	clear(hist[:])
	for _, v := range d {
		if k := magKey(v); k>>16 == hi {
			hist[k&0xffff]++
		}
	}
	lo := uint32(0)
	for ; rank > hist[lo]; lo++ {
		rank -= hist[lo]
	}
	threshold := hi<<16 | lo
	for i, zeroed := 0, 0; zeroed < drop; i++ {
		if magKey(d[i]) <= threshold {
			d[i] = 0
			zeroed++
		}
	}
	return nil
}

// RandomInput builds a deterministic input activation tensor for the model:
// (1, C, X, Y) for image models, (SeqLen, hidden) for sequence models.
// Values follow ReLU-style statistics (non-negative with zeros), since
// data-dependent optimizations such as SNAPEA are sensitive to the sign
// distribution of activations.
func RandomInput(m *Model, seed uint64) *tensor.Tensor {
	rng := NewRNG(seed ^ hashName(m.Name+"/input"))
	var t *tensor.Tensor
	if m.SeqLen > 0 {
		t = tensor.New(m.SeqLen, hiddenOf(m))
	} else {
		t = tensor.New(1, m.InputC, m.InputXY, m.InputXY)
	}
	FillNormal(rng, t.Data(), true)
	return t
}
