// Package tensor provides the dense and sparse tensor substrate used by the
// DNN front end and by the simulated accelerators. It is deliberately small:
// row-major float32 tensors, GEMM, im2col, and the two sparse encodings
// (bitmap and CSR) that the STONNE sparse controller understands.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor of arbitrary rank.
type Tensor struct {
	shape   []int
	strides []int
	data    []float32
}

// New allocates a zero tensor with the given shape. It panics on a
// non-positive dimension, matching the behaviour of make for slices.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		data:  make([]float32, n),
	}
	t.computeStrides()
	return t
}

// FromSlice wraps data in a tensor of the given shape. The data is not
// copied; the caller must not reuse it. The product of the shape must equal
// len(data).
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("tensor: non-positive dimension %d in shape %v", d, shape)
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("tensor: shape %v requires %d elements, got %d", shape, n, len(data))
	}
	t := &Tensor{shape: append([]int(nil), shape...), data: data}
	t.computeStrides()
	return t, nil
}

func (t *Tensor) computeStrides() {
	t.strides = make([]int, len(t.shape))
	s := 1
	for i := len(t.shape) - 1; i >= 0; i-- {
		t.strides[i] = s
		s *= t.shape[i]
	}
}

// Shape returns the tensor's shape. The returned slice must not be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data exposes the backing slice. Mutations are visible to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", x, i, t.shape[i]))
		}
		off += x * t.strides[i]
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view with a new shape; the total element count must be
// unchanged.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("tensor: non-positive dimension %d in reshape to %v", d, shape)
		}
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v (%d elems) to %v (%d elems)",
			t.shape, len(t.data), shape, n)
	}
	v := &Tensor{shape: append([]int(nil), shape...), data: t.data}
	v.computeStrides()
	return v, nil
}

// Transpose returns the transpose of a rank-2 tensor as a new tensor.
func Transpose(t *Tensor) *Tensor {
	r, c := t.Dim(0), t.Dim(1)
	out := New(c, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.data[j*r+i] = t.data[i*c+j]
		}
	}
	return out
}

// Apply replaces every element x with f(x).
func (t *Tensor) Apply(f func(float32) float32) {
	for i, x := range t.data {
		t.data[i] = f(x)
	}
}

// NNZ counts the non-zero elements.
func (t *Tensor) NNZ() int {
	n := 0
	for _, x := range t.data {
		if x != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns the fraction of zero elements in [0,1].
func (t *Tensor) Sparsity() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return 1 - float64(t.NNZ())/float64(len(t.data))
}

// MaxAbsDiff returns the maximum absolute element-wise difference between
// two tensors of identical shape, used for functional validation against the
// CPU reference executor.
func MaxAbsDiff(a, b *Tensor) (float64, error) {
	if !SameShape(a, b) {
		return 0, fmt.Errorf("tensor: shape mismatch %v vs %v", a.shape, b.shape)
	}
	max := 0.0
	for i := range a.data {
		d := math.Abs(float64(a.data[i]) - float64(b.data[i]))
		if d > max {
			max = d
		}
	}
	return max, nil
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
