package tensor

import "fmt"

// CSRMatrix is a compressed-sparse-row matrix.
type CSRMatrix struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Vals       []float32
}

// ToCSR converts a dense rank-2 tensor to CSR.
func ToCSR(t *Tensor) (*CSRMatrix, error) {
	if t.Rank() != 2 {
		return nil, fmt.Errorf("tensor: ToCSR requires rank-2 tensor, got %v", t.shape)
	}
	rows, cols := t.Dim(0), t.Dim(1)
	m := &CSRMatrix{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	// Count first, so the index and value arrays are allocated once, at
	// their exact size (an all-zero matrix keeps them nil).
	nnz := 0
	for _, v := range t.data[:rows*cols] {
		if v != 0 {
			nnz++
		}
	}
	if nnz > 0 {
		m.ColIdx, m.Vals = make([]int32, 0, nnz), make([]float32, 0, nnz)
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := t.data[i*cols+j]; v != 0 {
				m.ColIdx = append(m.ColIdx, int32(j))
				m.Vals = append(m.Vals, v)
			}
		}
		m.RowPtr[i+1] = int32(len(m.Vals))
	}
	return m, nil
}

// NNZ returns the number of stored non-zeros.
func (m *CSRMatrix) NNZ() int { return len(m.Vals) }

// Validate checks the CSR invariants: positive dimensions, a row-pointer
// array of Rows+1 monotone entries starting at 0 and ending at the
// non-zero count, matching index/value storage, and in-range column
// indices. An all-zero matrix is valid with nil ColIdx and Vals slices.
func (m *CSRMatrix) Validate() error {
	switch {
	case m.Rows <= 0 || m.Cols <= 0:
		return fmt.Errorf("tensor: CSR matrix has non-positive shape %dx%d", m.Rows, m.Cols)
	case len(m.RowPtr) != m.Rows+1:
		return fmt.Errorf("tensor: CSR RowPtr has %d entries, want %d", len(m.RowPtr), m.Rows+1)
	case m.RowPtr[0] != 0:
		return fmt.Errorf("tensor: CSR RowPtr starts at %d, want 0", m.RowPtr[0])
	case len(m.ColIdx) != len(m.Vals):
		return fmt.Errorf("tensor: CSR has %d column indices for %d values", len(m.ColIdx), len(m.Vals))
	case int(m.RowPtr[m.Rows]) != len(m.Vals):
		return fmt.Errorf("tensor: CSR RowPtr ends at %d, stores %d values", m.RowPtr[m.Rows], len(m.Vals))
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i+1] < m.RowPtr[i] {
			return fmt.Errorf("tensor: CSR RowPtr decreases at row %d (%d -> %d)", i, m.RowPtr[i], m.RowPtr[i+1])
		}
	}
	for p, j := range m.ColIdx {
		if j < 0 || int(j) >= m.Cols {
			return fmt.Errorf("tensor: CSR column index %d at position %d out of range [0,%d)", j, p, m.Cols)
		}
	}
	return nil
}

// RowNNZ returns the non-zero count of row i.
func (m *CSRMatrix) RowNNZ(i int) int { return int(m.RowPtr[i+1] - m.RowPtr[i]) }

// Row returns the column indices and values of row i; the slices alias the
// matrix storage.
func (m *CSRMatrix) Row(i int) ([]int32, []float32) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Vals[lo:hi]
}

// Dense expands the CSR matrix back to a dense tensor.
func (m *CSRMatrix) Dense() *Tensor {
	t := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		idx, vals := m.Row(i)
		for p, j := range idx {
			t.data[i*m.Cols+int(j)] = vals[p]
		}
	}
	return t
}

// SpMM multiplies CSR A (M×K) by dense B (K×N), the functional reference for
// the sparse controller. A malformed A (broken RowPtr, out-of-range column
// indices) reports an error instead of corrupting the product.
func SpMM(a *CSRMatrix, b *Tensor) (*Tensor, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if b.Rank() != 2 || b.Dim(0) != a.Cols {
		return nil, fmt.Errorf("tensor: SpMM dims mismatch: A is %dx%d, B is %v", a.Rows, a.Cols, b.shape)
	}
	n := b.Dim(1)
	c := New(a.Rows, n)
	for i := 0; i < a.Rows; i++ {
		idx, vals := a.Row(i)
		crow := c.data[i*n : (i+1)*n]
		for p, k := range idx {
			av := vals[p]
			brow := b.data[int(k)*n : (int(k)+1)*n]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
	return c, nil
}
