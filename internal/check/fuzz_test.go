package check

import (
	"testing"

	"repro/internal/dnn"
	"repro/internal/tensor"
)

// randTensor fills a tensor of the given shape with standard normal draws.
func randTensor(rng *dnn.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i, d := 0, t.Data(); i < len(d); i++ {
		d[i] = float32(rng.Normal())
	}
	return t
}

func FuzzSparseRoundTrip(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint64(1), uint8(128))
	f.Add(uint8(1), uint8(1), uint64(2), uint8(0))   // dense single element
	f.Add(uint8(7), uint8(5), uint64(3), uint8(255)) // all-zero matrix
	f.Add(uint8(9), uint8(2), uint64(4), uint8(200)) // mostly-empty rows
	f.Fuzz(func(t *testing.T, rows, cols uint8, seed uint64, sparsity uint8) {
		mr, mc := 1+int(rows)%16, 1+int(cols)%16
		rng := dnn.NewRNG(seed)
		a := randTensor(rng, mr, mc)
		for i, d := 0, a.Data(); i < len(d); i++ {
			if rng.Float64() < float64(sparsity)/255 {
				d[i] = 0
			}
		}

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

		// SpMM over CSR must be bit-exact against dense MatMul:
		// both accumulate each row's non-zeros in the same order.
		b := randTensor(rng, mc, 1+int(seed%5))
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
