package dnn

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// sortPruneTensor is pruneTensor as it stood before the radix select: a
// float64 copy of every magnitude, sort.Float64s, mags[drop-1] as the
// threshold. One line moved: the drop == 0 return now follows the n-1
// clamp, because the original indexed mags[-1] (and panicked) on a
// one-element tensor at a target of 0.5 or more.
func sortPruneTensor(t *tensor.Tensor, target float64) error {
	d := t.Data()
	n := len(d)
	drop := int(math.Round(target * float64(n)))
	if drop >= n {
		drop = n - 1 // never prune a layer to fully zero
	}
	if drop <= 0 {
		return nil
	}
	mags := make([]float64, n)
	for i, v := range d {
		mags[i] = math.Abs(float64(v))
	}
	sort.Float64s(mags)
	threshold := mags[drop-1]
	zeroed := 0
	for i, v := range d {
		if math.Abs(float64(v)) <= threshold && zeroed < drop {
			d[i] = 0
			zeroed++
		}
	}
	return nil
}

// checkPruneMatchesSort prunes a copy of data with pruneTensor and with the
// sort oracle, and fails unless both return no error and agree bit for bit.
func checkPruneMatchesSort(t *testing.T, name string, data []float32, target float64) {
	t.Helper()
	got, _ := tensor.FromSlice(slices.Clone(data), len(data))
	want, _ := tensor.FromSlice(slices.Clone(data), len(data))
	if err := pruneTensor(got, target, new([1 << 16]uint32)); err != nil {
		t.Fatalf("%s at %v: %v", name, target, err)
	}
	if err := sortPruneTensor(want, target); err != nil {
		t.Fatalf("%s at %v: oracle: %v", name, target, err)
	}
	for i, g := range got.Data() {
		if w := want.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s at %v: index %d is %v (%#x), the sort oracle has %v (%#x)",
				name, target, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

func TestPruneMatchesSort(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	sub := math.Float32frombits(1) // smallest positive subnormal
	rng := NewRNG(3)
	normals := make([]float32, 5000)
	for i := range normals {
		normals[i] = float32(rng.Normal())
	}
	// One high-16-bit bucket: every key differs only in its low half, so
	// the second pass does all the selecting.
	oneBucket := make([]float32, 3000)
	for i := range oneBucket {
		v := math.Float32frombits(0x3f80_0000 | uint32(rng.Uint64()&0xffff))
		if i%3 == 0 {
			v = -v
		}
		oneBucket[i] = v
	}
	// Heavy ties: a few magnitudes of both signs, repeated across buckets.
	ties := make([]float32, 4000)
	for i := range ties {
		v := float32(rng.Uint64()%5) * 0.25
		if rng.Uint64()%2 == 0 {
			v = -v
		}
		ties[i] = v
	}
	allEqual := make([]float32, 100)
	for i := range allEqual {
		allEqual[i] = 0.7
	}
	cases := []struct {
		name string
		data []float32
	}{
		{"ties at the threshold", []float32{1, 2, -2, 2, 2, -2, 3, 2, 1, -2}},
		{"all equal", allEqual},
		{"all equal, mixed sign", []float32{-0.7, 0.7, 0.7, -0.7, 0.7, -0.7, 0.7}},
		{"mixed ±0", []float32{0, negZero, 1, negZero, 0, -1, 0.5, negZero, 0, 2}},
		{"subnormals", []float32{3 * sub, -sub, 2 * sub, 0, -3 * sub, math.SmallestNonzeroFloat32, sub * 255, 1e-38, -1e-39, 1}},
		{"±Inf", []float32{inf, -inf, 1, -1, math.MaxFloat32, 0, -inf, -math.MaxFloat32, inf, 2}},
		{"one element", []float32{-5}},
		{"two elements", []float32{3, -2}},
		{"two equal elements", []float32{-2, 2}},
		{"normals", normals},
		{"one bucket", oneBucket},
		{"heavy ties", ties},
	}
	for _, c := range cases {
		for _, target := range []float64{0.01, 0.2, 0.5, 0.8, 0.99} {
			checkPruneMatchesSort(t, c.name, c.data, target)
		}
		// drop = n-1: a target just under 1 rounds to all n and clamps.
		checkPruneMatchesSort(t, c.name, c.data, 1-1/(4*float64(len(c.data))))
	}
}

// Every layer of the six CNN zoo models at the figures' test scale.
func TestPruneMatchesSortOnZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("full model builds in -short mode")
	}
	for _, full := range AllModels() {
		if full.SeqLen > 0 {
			continue // BERT: its build alone outlasts the rest of the test
		}
		m, err := ScaleSpatial(full, 16)
		if err != nil {
			t.Fatal(err)
		}
		w := InitWeights(m, 1)
		for _, name := range w.LayerNames() {
			checkPruneMatchesSort(t, m.Name+"/"+name, w.ByLayer[name].Data(), m.Sparsity)
		}
	}
}

func TestPruneRejectsNaN(t *testing.T) {
	// The quiet NaN, and the NaNs nearest +Inf and -Inf.
	for _, bits := range []uint32{0x7fc0_0000, 0x7f80_0001, 0xff80_0001} {
		data := []float32{1, -2, 0.5, math.Float32frombits(bits), 3, -0.25}
		x, _ := tensor.FromSlice(slices.Clone(data), len(data))
		y, _ := tensor.FromSlice(slices.Clone(data), len(data))
		w := &Weights{ByLayer: map[string]*tensor.Tensor{"fc": y, "conv2": x, "conv1": x}}
		// Layers are pruned in name order, so conv1 is named on every run.
		for range 20 {
			err := w.Prune(0.5)
			if err == nil || err.Error() != "dnn: pruning conv1: NaN weight at index 3" {
				t.Fatalf("Prune over the NaN %#x: %v", bits, err)
			}
		}
		for i, v := range x.Data() {
			if math.Float32bits(v) != math.Float32bits(data[i]) {
				t.Fatalf("index %d written before the NaN %#x was reported", i, bits)
			}
		}
	}
}

// FuzzPruneMatchesSort reads its first two bytes as a target in (0,1) and
// the rest as float32 values: pruneTensor must equal the sort oracle bit for
// bit, or, when a value is NaN, refuse with the tensor untouched.
func FuzzPruneMatchesSort(f *testing.F) {
	seed := func(target uint16, vals ...float32) []byte {
		b := binary.LittleEndian.AppendUint16(nil, target)
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	f.Add(seed(1<<15, 1, -2, 2, 2, 0.5))
	f.Add(seed(0xfff0, 3, -3, 3, 0, float32(math.Copysign(0, -1))))
	f.Add(seed(1<<14, float32(math.Inf(-1)), math.Float32frombits(1), 7))
	f.Add(seed(1<<15, 1, float32(math.NaN()), 2))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 6 {
			return // no value to prune
		}
		target := (float64(binary.LittleEndian.Uint16(b)) + 1) / (1<<16 + 1)
		data := make([]float32, (len(b)-2)/4)
		hasNaN := false
		for i := range data {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[2+4*i:]))
			hasNaN = hasNaN || math.IsNaN(float64(data[i]))
		}
		if !hasNaN {
			checkPruneMatchesSort(t, fmt.Sprintf("%d values", len(data)), data, target)
			return
		}
		x, _ := tensor.FromSlice(slices.Clone(data), len(data))
		err := pruneTensor(x, target, new([1 << 16]uint32))
		if err == nil || !strings.HasPrefix(err.Error(), "NaN weight at index ") {
			t.Fatalf("NaN input: got error %v", err)
		}
		for i, v := range x.Data() {
			if math.Float32bits(v) != math.Float32bits(data[i]) {
				t.Fatalf("index %d written before the NaN was reported", i)
			}
		}
	})
}
