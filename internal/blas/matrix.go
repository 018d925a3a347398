// Package blas provides the dense linear-algebra kernels that back the
// simulated GPU's cuBLAS role: single-precision GEMM, half-precision GEMM
// with authentic FP16 accumulation semantics, squared-norm vectors, and the
// column-concatenation used to batch reference feature matrices.
//
// Matrices are column-major, matching both cuBLAS convention and the paper's
// layout: a feature matrix is d×m with one local feature per column, so a
// single feature is contiguous in memory and the 2-NN similarity matrix
// -2·RᵀQ is computed with GemmTN.
package blas

import "fmt"

// Matrix is a dense column-major float32 matrix. Element (i,j) lives at
// Data[j*Stride+i]. Stride >= Rows allows views into larger buffers, which
// the engine uses to slice batched reference stores without copying.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float32
}

// NewMatrix allocates a zeroed rows×cols matrix with a tight stride.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("blas: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: rows, Data: make([]float32, rows*cols)}
}

// FromColumns builds a rows×len(cols) matrix whose j-th column is cols[j].
// Every column must have length rows.
func FromColumns(rows int, cols [][]float32) *Matrix {
	m := NewMatrix(rows, len(cols))
	for j, c := range cols {
		if len(c) != rows {
			panic(fmt.Sprintf("blas: column %d has length %d, want %d", j, len(c), rows))
		}
		copy(m.Col(j), c)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[j*m.Stride+i] }

// Col returns column j as a slice sharing the matrix's storage.
func (m *Matrix) Col(j int) []float32 {
	return m.Data[j*m.Stride : j*m.Stride+m.Rows]
}

// Slice returns a view of columns [from, to) sharing storage with m.
func (m *Matrix) Slice(from, to int) *Matrix {
	if from < 0 || to > m.Cols || from > to {
		panic(fmt.Sprintf("blas: slice [%d,%d) of %d columns", from, to, m.Cols))
	}
	return &Matrix{
		Rows:   m.Rows,
		Cols:   to - from,
		Stride: m.Stride,
		Data:   m.Data[from*m.Stride : from*m.Stride+(to-from-1)*m.Stride+m.Rows],
	}
}

// SliceView is Slice returning the view by value, for hot loops that must
// not heap-allocate the matrix header.
func (m *Matrix) SliceView(from, to int) Matrix {
	if from < 0 || to > m.Cols || from > to {
		panic(fmt.Sprintf("blas: slice [%d,%d) of %d columns", from, to, m.Cols))
	}
	return Matrix{
		Rows:   m.Rows,
		Cols:   to - from,
		Stride: m.Stride,
		Data:   m.Data[from*m.Stride : from*m.Stride+(to-from-1)*m.Stride+m.Rows],
	}
}

// Clone returns a deep copy with a tight stride.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		copy(c.Col(j), m.Col(j))
	}
	return c
}

// ConcatColumns concatenates the columns of the given matrices (all with the
// same row count) into one matrix. This is the batching step of Fig. 3: a
// batch of reference feature matrices R_1..R_B, each d×m, becomes a single
// d×(B·m) matrix so one large GEMM replaces B small ones.
func ConcatColumns(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return NewMatrix(0, 0)
	}
	rows := ms[0].Rows
	total := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("blas: ConcatColumns row mismatch %d != %d", m.Rows, rows))
		}
		total += m.Cols
	}
	out := NewMatrix(rows, total)
	at := 0
	for _, m := range ms {
		for j := 0; j < m.Cols; j++ {
			copy(out.Col(at), m.Col(j))
			at++
		}
	}
	return out
}

// ConcatColumnsInto is ConcatColumns reusing dst's backing storage when it
// is large enough, for callers that rebuild the same concatenation every
// search (the multi-query batching path). dst is reshaped and returned.
func ConcatColumnsInto(dst *Matrix, ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		*dst = Matrix{}
		return dst
	}
	rows := ms[0].Rows
	total := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("blas: ConcatColumns row mismatch %d != %d", m.Rows, rows))
		}
		total += m.Cols
	}
	if cap(dst.Data) < rows*total {
		dst.Data = make([]float32, rows*total)
	}
	dst.Rows, dst.Cols, dst.Stride = rows, total, rows
	dst.Data = dst.Data[:rows*total]
	at := 0
	for _, m := range ms {
		for j := 0; j < m.Cols; j++ {
			copy(dst.Col(at), m.Col(j))
			at++
		}
	}
	return dst
}

// SquaredNorms returns the per-column squared L2 norms of A: element j is
// ‖A_:,j‖². These are the N_R / N_Q vectors of Algorithm 1; storing them as
// length-m vectors rather than materializing full m×n matrices is the
// paper's memory-saving trick.
func SquaredNorms(A *Matrix) []float32 {
	return SquaredNormsInto(A, nil)
}

// SquaredNormsInto is SquaredNorms writing into dst's backing array when it
// has the capacity, so steady-state search paths can reuse one buffer.
func SquaredNormsInto(A *Matrix, dst []float32) []float32 {
	if cap(dst) < A.Cols {
		dst = make([]float32, A.Cols)
	}
	dst = dst[:A.Cols]
	for j := 0; j < A.Cols; j++ {
		col := A.Col(j)
		var s float32
		for _, v := range col {
			s += v * v
		}
		dst[j] = s
	}
	return dst
}
