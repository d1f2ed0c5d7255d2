package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return m
}

func TestIdentityMul(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5} {
		a := randomMatrix(r, n, n)
		if got := Identity(n).Mul(a); !got.Equal(a, 1e-12) {
			t.Errorf("I·A != A for n=%d", n)
		}
		if got := a.Mul(Identity(n)); !got.Equal(a, 1e-12) {
			t.Errorf("A·I != A for n=%d", n)
		}
	}
}

func TestMulShapes(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := randomMatrix(r, 2, 3)
	b := randomMatrix(r, 3, 4)
	c := a.Mul(b)
	if c.Rows != 2 || c.Cols != 4 {
		t.Fatalf("got shape %dx%d, want 2x4", c.Rows, c.Cols)
	}
	// Spot-check one element against a manual dot product.
	var want complex128
	for k := 0; k < 3; k++ {
		want += a.At(1, k) * b.At(k, 2)
	}
	if cmplx.Abs(c.At(1, 2)-want) > 1e-12 {
		t.Errorf("element mismatch: got %v want %v", c.At(1, 2), want)
	}
}

func TestMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func TestHermitianTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randomMatrix(r, 3, 5)
	h := a.H()
	if h.Rows != 5 || h.Cols != 3 {
		t.Fatalf("H shape %dx%d, want 5x3", h.Rows, h.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if h.At(j, i) != cmplx.Conj(a.At(i, j)) {
				t.Fatalf("H[%d,%d] != conj(A[%d,%d])", j, i, i, j)
			}
		}
	}
	if !a.H().H().Equal(a, 0) {
		t.Error("(Aᴴ)ᴴ != A")
	}
}

func TestAddSubScale(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a := randomMatrix(r, 3, 3)
	b := randomMatrix(r, 3, 3)
	if !a.Add(b).Sub(b).Equal(a, 1e-12) {
		t.Error("(A+B)-B != A")
	}
	if !a.Scale(2).Sub(a).Equal(a, 1e-12) {
		t.Error("2A-A != A")
	}
}

func TestColRowAccessors(t *testing.T) {
	a := FromRows([][]complex128{
		{1, 2, 3},
		{4, 5, 6},
	})
	col := a.Col(1)
	if col[0] != 2 || col[1] != 5 {
		t.Errorf("Col(1) = %v", col)
	}
	row := a.Row(1)
	if row[0] != 4 || row[2] != 6 {
		t.Errorf("Row(1) = %v", row)
	}
	sub := a.ColsSlice(2, 0)
	if sub.At(0, 0) != 3 || sub.At(1, 1) != 4 {
		t.Errorf("ColsSlice = %v", sub)
	}
	rsub := a.RowsSlice(1)
	if rsub.Rows != 1 || rsub.At(0, 0) != 4 {
		t.Errorf("RowsSlice = %v", rsub)
	}
	a2 := a.Clone()
	a2.SetCol(0, []complex128{9, 9})
	if a2.At(0, 0) != 9 || a.At(0, 0) != 1 {
		t.Error("SetCol/Clone aliasing")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	a := FromRows([][]complex128{{3, 0}, {0, 4i}})
	if got := a.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("‖A‖_F = %g, want 5", got)
	}
	if NewMatrix(0, 0).FrobeniusNorm() != 0 {
		t.Error("empty norm should be 0")
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	got := a.MulVec([]complex128{1, 1i})
	if cmplx.Abs(got[0]-(1+2i)) > 1e-12 || cmplx.Abs(got[1]-(3+4i)) > 1e-12 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestDotNorm(t *testing.T) {
	a := []complex128{1, 1i}
	b := []complex128{1i, 1}
	// aᴴ·b = conj(1)·1i + conj(1i)·1 = 1i − 1i = 0
	if d := Dot(a, b); cmplx.Abs(d) > 1e-12 {
		t.Errorf("Dot = %v, want 0", d)
	}
	if n := Norm2(a); math.Abs(n-math.Sqrt2) > 1e-12 {
		t.Errorf("Norm2 = %g", n)
	}
}

// Property: matrix multiplication is associative.
func TestQuickMulAssociative(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		a, b, c := randomMatrix(r, n, n), randomMatrix(r, n, n), randomMatrix(r, n, n)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		return left.Equal(right, 1e-9*math.Max(1, left.MaxAbs()))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: (A·B)ᴴ = Bᴴ·Aᴴ.
func TestQuickMulHermitian(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(4), 1+r.Intn(4), 1+r.Intn(4)
		a, b := randomMatrix(r, m, k), randomMatrix(r, k, n)
		return a.Mul(b).H().Equal(b.H().Mul(a.H()), 1e-10)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	_ = FromRows([][]complex128{{1 + 2i}}).String()
	_ = NewMatrix(0, 0).String()
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for r, row := range rows {
		if len(row) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[r*m.Cols:(r+1)*m.Cols], row)
	}
	return m
}

// IsIdentity reports whether m is the identity matrix within tol.
func (m *Matrix) IsIdentity(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			want := complex128(0)
			if r == c {
				want = 1
			}
			if cmplx.Abs(m.At(r, c)-want) > tol {
				return false
			}
		}
	}
	return true
}
