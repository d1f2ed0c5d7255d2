// Package linalg provides dense complex-valued linear algebra for the
// small matrices that arise in MIMO precoding: matrix products, Hermitian
// transposes, inverses, a complex singular value decomposition, and
// nullspace computation.
//
// All matrices are dense, row-major, and backed by a single []complex128.
// Dimensions in this codebase are tiny (at most a handful of antennas per
// node), so the implementations favour clarity and numerical robustness
// over asymptotic performance.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, Data[r*Cols+c]
}

// NewMatrix returns a zero-valued rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) complex128 { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v complex128) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Equal reports whether m and b have identical shape and elements within tol
// (absolute, element-wise).
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := range m.Data {
		if cmplx.Abs(m.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	out := NewMatrix(m.Rows, b.Cols)
	mulInto(out, m, b)
	return out
}

// mulInto accumulates m·b into out, which must be zeroed and of shape
// m.Rows×b.Cols.
func mulInto(out, m, b *Matrix) {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[r*m.Cols+k]
			if a == 0 {
				continue
			}
			for c := 0; c < b.Cols; c++ {
				out.Data[r*b.Cols+c] += a * b.Data[k*b.Cols+c]
			}
		}
	}
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []complex128) []complex128 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d · %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]complex128, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var s complex128
		for c := 0; c < m.Cols; c++ {
			s += m.Data[r*m.Cols+c] * v[c]
		}
		out[r] = s
	}
	return out
}

// H returns the Hermitian (conjugate) transpose of m.
func (m *Matrix) H() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	hInto(out, m)
	return out
}

// hInto writes the Hermitian transpose of m into out (shape m.Cols×m.Rows).
func hInto(out, m *Matrix) {
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*m.Rows+r] = cmplx.Conj(m.Data[r*m.Cols+c])
		}
	}
}

// T returns the (non-conjugating) transpose of m.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*m.Rows+r] = m.Data[r*m.Cols+c]
		}
	}
	return out
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) *Matrix {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: Add shape mismatch")
	}
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] += b.Data[i]
	}
	return out
}

// Sub returns m − b.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: Sub shape mismatch")
	}
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] -= b.Data[i]
	}
	return out
}

// Scale returns s·m.
func (m *Matrix) Scale(s complex128) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// Col returns a copy of column c.
func (m *Matrix) Col(c int) []complex128 {
	out := make([]complex128, m.Rows)
	for r := 0; r < m.Rows; r++ {
		out[r] = m.Data[r*m.Cols+c]
	}
	return out
}

// Row returns a copy of row r.
func (m *Matrix) Row(r int) []complex128 {
	out := make([]complex128, m.Cols)
	copy(out, m.Data[r*m.Cols:(r+1)*m.Cols])
	return out
}

// SetCol assigns column c from v.
func (m *Matrix) SetCol(c int, v []complex128) {
	if len(v) != m.Rows {
		panic("linalg: SetCol length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		m.Data[r*m.Cols+c] = v[r]
	}
}

// ColsSlice returns a new matrix formed from the given column indices of m,
// in order.
func (m *Matrix) ColsSlice(idx ...int) *Matrix {
	out := NewMatrix(m.Rows, len(idx))
	colsSliceInto(out, m, idx)
	return out
}

// colsSliceInto writes the selected columns of m into out
// (shape m.Rows×len(idx)).
func colsSliceInto(out, m *Matrix, idx []int) {
	for j, c := range idx {
		for r := 0; r < m.Rows; r++ {
			out.Data[r*out.Cols+j] = m.Data[r*m.Cols+c]
		}
	}
}

// RowsSlice returns a new matrix formed from the given row indices of m,
// in order.
func (m *Matrix) RowsSlice(idx ...int) *Matrix {
	out := NewMatrix(len(idx), m.Cols)
	for i, r := range idx {
		copy(out.Data[i*out.Cols:(i+1)*out.Cols], m.Data[r*m.Cols:(r+1)*m.Cols])
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm ‖m‖_F.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest element magnitude in m (0 for empty matrices).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d[", m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		if r > 0 {
			b.WriteString("; ")
		}
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%.4g%+.4gi", real(m.At(r, c)), imag(m.At(r, c)))
		}
	}
	b.WriteString("]")
	return b.String()
}

// Dot returns the inner product aᴴ·b of two vectors.
func Dot(a, b []complex128) complex128 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s complex128
	for i := range a {
		s += cmplx.Conj(a[i]) * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of a vector.
func Norm2(v []complex128) float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}
