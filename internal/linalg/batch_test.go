package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Property and equivalence tests for the batched closed-form eigensolver
// kernels against the generic Jacobi reference (EigHermitianWS / SVDWS).
// These run under the race detector and with GOAMD64=v3 in the CI
// kernel-equivalence job; the tolerances below are the documented bounds
// of the kernel-equivalence policy (DESIGN §13).

// eigValTol bounds |λ_batch − λ_reference| relative to the spectrum scale.
const eigValTol = 1e-8

// eigStructTol bounds the structural properties of the batched output:
// eigenvector orthonormality defect and the reconstruction residual
// ‖V·diag(λ)·Vᴴ − A‖∞ relative to the matrix scale.
const eigStructTol = 1e-8

func randHermitian(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	h := m.H()
	out := NewMatrix(n, n)
	for i := range out.Data {
		out.Data[i] = (m.Data[i] + h.Data[i]) / 2
	}
	return out
}

// randUnitary builds a random unitary matrix as the right singular vectors
// of a random square matrix.
func randUnitary(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	_, _, v := m.SVD()
	return v
}

// hermitianWithSpectrum builds V·diag(vals)·Vᴴ for a random unitary V and
// re-symmetrizes so the result is exactly Hermitian.
func hermitianWithSpectrum(rng *rand.Rand, vals []float64) *Matrix {
	n := len(vals)
	v := randUnitary(rng, n)
	d := NewMatrix(n, n)
	for i, l := range vals {
		d.Set(i, i, complex(l, 0))
	}
	a := v.Mul(d).Mul(v.H())
	h := a.H()
	for i := range a.Data {
		a.Data[i] = (a.Data[i] + h.Data[i]) / 2
	}
	return a
}

// batchOf packs the given same-size Hermitian matrices into a SoA batch.
func batchOf(ws *Workspace, mats []*Matrix) HermitianBatch {
	n := mats[0].Rows
	b := ws.HermitianBatch(n, len(mats))
	for k, m := range mats {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Set(k, i, j, m.At(i, j))
			}
		}
	}
	return b
}

// checkEigBatchEntry verifies batch entry k against the scalar reference
// decomposition of m: eigenvalues within eigValTol of the reference,
// descending order, orthonormal eigenvectors, and a small reconstruction
// residual. Eigenvectors are compared structurally rather than
// column-by-column because within degenerate subspaces any orthonormal
// basis is a valid answer.
func checkEigBatchEntry(t *testing.T, m *Matrix, e *EigBatch, k int) {
	t.Helper()
	n := m.Rows
	var refWS Workspace
	refVals, _ := m.EigHermitianWS(&refWS)
	scale := math.Max(1, m.MaxAbs())

	for j := 0; j < n; j++ {
		if d := math.Abs(e.Val(k, j) - refVals[j]); d > eigValTol*scale {
			t.Fatalf("eig %dx%d entry %d: λ[%d]=%.17g, reference %.17g (diff %g)",
				n, n, k, j, e.Val(k, j), refVals[j], d)
		}
		if j > 0 && e.Val(k, j) > e.Val(k, j-1) {
			t.Fatalf("eig %dx%d entry %d: eigenvalues not descending at %d", n, n, k, j)
		}
	}

	// Orthonormality: VᴴV = I.
	for c1 := 0; c1 < n; c1++ {
		for c2 := 0; c2 < n; c2++ {
			var dot complex128
			for i := 0; i < n; i++ {
				dot += cmplx.Conj(e.Vec(k, i, c1)) * e.Vec(k, i, c2)
			}
			want := complex128(0)
			if c1 == c2 {
				want = 1
			}
			if cmplx.Abs(dot-want) > eigStructTol {
				t.Fatalf("eig %dx%d entry %d: VᴴV defect %g at (%d,%d)",
					n, n, k, cmplx.Abs(dot-want), c1, c2)
			}
		}
	}

	// Reconstruction: V·diag(λ)·Vᴴ = A.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s complex128
			for c := 0; c < n; c++ {
				s += e.Vec(k, i, c) * complex(e.Val(k, c), 0) * cmplx.Conj(e.Vec(k, j, c))
			}
			if d := cmplx.Abs(s - m.At(i, j)); d > eigStructTol*scale {
				t.Fatalf("eig %dx%d entry %d: reconstruction residual %g at (%d,%d)",
					n, n, k, d, i, j)
			}
		}
	}
}

func TestEigHermitianBatchMatchesGenericRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 5; n++ {
		mats := make([]*Matrix, 40)
		for k := range mats {
			mats[k] = randHermitian(rng, n)
		}
		var ws Workspace
		b := batchOf(&ws, mats)
		e := EigHermitianBatch(&ws, &b)
		for k, m := range mats {
			checkEigBatchEntry(t, m, &e, k)
		}
	}
}

func TestEigHermitianBatchHardSpectra(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spectra := [][]float64{
		// Degenerate and near-degenerate spectra (closed-form paths must
		// fall back or still produce a valid orthonormal eigenbasis).
		{1, 1},
		{2, 2, 2},
		{2, 2, 1},
		{1 + 1e-12, 1, -1},
		{5, 5, 5, 5},
		{3, 3, 1, 1},
		{1 + 1e-9, 1, 1 - 1e-9, 0},
		// Large dynamic range.
		{1e9, 1, 1e-9},
		{1e12, 1e6, 1, 1e-6},
		{-1e9, -1, 1e-9},
		// Signed spectra (interference covariances are PSD, but the kernels
		// should not rely on it).
		{1, 0, -1},
		{2, 1, -1, -2},
	}
	for _, spec := range spectra {
		spec := spec
		t.Run(fmt.Sprintf("%v", spec), func(t *testing.T) {
			mats := make([]*Matrix, 8)
			for k := range mats {
				mats[k] = hermitianWithSpectrum(rng, spec)
			}
			var ws Workspace
			b := batchOf(&ws, mats)
			e := EigHermitianBatch(&ws, &b)
			for k, m := range mats {
				checkEigBatchEntry(t, m, &e, k)
			}
		})
	}
}

func TestEigHermitianBatchNearZeroOffDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 2; n <= 4; n++ {
		mats := make([]*Matrix, 12)
		for k := range mats {
			m := NewMatrix(n, n)
			for i := 0; i < n; i++ {
				m.Set(i, i, complex(rng.NormFloat64()*10, 0))
			}
			// Off-diagonals at ~1e-14 of the diagonal scale: small enough
			// to be numerically negligible, large enough to exercise the
			// not-exactly-diagonal branches.
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					v := complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-14
					m.Set(i, j, v)
					m.Set(j, i, cmplx.Conj(v))
				}
			}
			mats[k] = m
		}
		var ws Workspace
		b := batchOf(&ws, mats)
		e := EigHermitianBatch(&ws, &b)
		for k, m := range mats {
			checkEigBatchEntry(t, m, &e, k)
		}
	}
}

func TestEigHermitianBatchExactlyDiagonal(t *testing.T) {
	var ws Workspace
	mats := []*Matrix{
		FromRows([][]complex128{{5, 0}, {0, -3}}),
		FromRows([][]complex128{{-3, 0}, {0, 5}}),
		FromRows([][]complex128{{0, 0}, {0, 0}}),
	}
	b := batchOf(&ws, mats)
	e := EigHermitianBatch(&ws, &b)
	for k, m := range mats {
		checkEigBatchEntry(t, m, &e, k)
	}
}

func TestSVDBatchMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dims := range [][2]int{{1, 1}, {2, 2}, {2, 4}, {3, 2}, {2, 3}, {4, 4}, {3, 4}} {
		rows, cols := dims[0], dims[1]
		mats := make([]*Matrix, 20)
		for k := range mats {
			m := NewMatrix(rows, cols)
			for i := range m.Data {
				m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			mats[k] = m
		}
		var ws Workspace
		res := SVDBatch(&ws, mats)
		for k, m := range mats {
			var refWS Workspace
			_, refS, _ := m.SVDWS(&refWS)
			smax := math.Max(1, refS[0])
			// The Gram pass loses relative accuracy below ~√ε·σmax; the
			// documented bound is an absolute 1e-7·σmax on each σ.
			for j, want := range refS {
				if d := math.Abs(res.SVal(k, j) - want); d > 1e-7*smax {
					t.Fatalf("svd %dx%d entry %d: σ[%d]=%g, reference %g",
						rows, cols, k, j, res.SVal(k, j), want)
				}
			}
			// Right singular vectors: A·vⱼ must have norm σⱼ, and V must be
			// unitary. (Column-wise comparison to the reference V is not
			// meaningful under degeneracy or phase freedom.)
			for j := 0; j < cols; j++ {
				var col []complex128
				for i := 0; i < cols; i++ {
					col = append(col, res.V[(i*cols+j)*res.Count+k])
				}
				av := m.MulVec(col)
				if d := math.Abs(Norm2(av) - res.SVal(k, j)); d > 1e-7*smax {
					t.Fatalf("svd %dx%d entry %d: ‖A·v[%d]‖=%g, σ=%g",
						rows, cols, k, j, Norm2(av), res.SVal(k, j))
				}
				if d := math.Abs(Norm2(col) - 1); d > eigStructTol {
					t.Fatalf("svd %dx%d entry %d: ‖v[%d]‖ off unit by %g", rows, cols, k, j, d)
				}
			}
		}
	}
}

func TestSVDBatchNullspaceDim(t *testing.T) {
	rng := rand.New(rand.NewSource(31))

	// Full-row-rank random 2×4 channels (the nulling hot case): the batch
	// must certify rank 2 → nullspace dimension 2, matching NullspaceWS.
	mats := make([]*Matrix, 16)
	for k := range mats {
		m := NewMatrix(2, 4)
		for i := range m.Data {
			m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		mats[k] = m
	}
	var ws Workspace
	res := SVDBatch(&ws, mats)
	for k, m := range mats {
		dim, ok := res.NullspaceDim(k, 2, 1e-9)
		if !ok {
			t.Fatalf("entry %d: full-rank channel not certified", k)
		}
		var refWS Workspace
		if ref := m.NullspaceWS(&refWS, 1e-9); ref.Cols != dim {
			t.Fatalf("entry %d: dim %d, reference %d", k, dim, ref.Cols)
		}
	}

	// A rank-deficient 2×4 matrix (row 2 = 2·row 1): the Gram pass cannot
	// resolve rank at tol=1e-9, so it must refuse to certify rather than
	// guess — the scalar reference is the authority there.
	def := NewMatrix(2, 4)
	for j := 0; j < 4; j++ {
		v := complex(float64(j+1), float64(-j))
		def.Set(0, j, v)
		def.Set(1, j, 2*v)
	}
	res = SVDBatch(&ws, []*Matrix{def})
	if _, ok := res.NullspaceDim(0, 2, 1e-9); ok {
		t.Fatal("rank-deficient matrix was certified")
	}

	// A singular value parked at the threshold must not be certified.
	amb := NewMatrix(2, 2)
	amb.Set(0, 0, 1)
	amb.Set(1, 1, complex(1e-9, 0))
	res = SVDBatch(&ws, []*Matrix{amb})
	if _, ok := res.NullspaceDim(0, 2, 1e-9); ok {
		t.Fatal("threshold-straddling σ was certified")
	}

	// The zero matrix has no σmax to normalize against.
	zero := NewMatrix(3, 3)
	res = SVDBatch(&ws, []*Matrix{zero})
	if _, ok := res.NullspaceDim(0, 3, 1e-9); ok {
		t.Fatal("zero matrix was certified")
	}
}

// TestEigHermitianBatchAllocFree pins the allocs/op = 0 contract of the
// batched kernels: once the workspace has warmed up, a Reset + full batch
// decomposition must not touch the Go allocator.
func TestEigHermitianBatchAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 1; n <= 4; n++ {
		mats := make([]*Matrix, 52)
		for k := range mats {
			mats[k] = randHermitian(rng, n)
		}
		var ws Workspace
		run := func() {
			ws.Reset()
			b := batchOf(&ws, mats)
			e := EigHermitianBatch(&ws, &b)
			_ = e
		}
		run() // warm the arena
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Fatalf("EigHermitianBatch n=%d: %v allocs/op, want 0", n, allocs)
		}
	}
}

func TestSVDBatchAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	mats := make([]*Matrix, 52)
	for k := range mats {
		m := NewMatrix(2, 4)
		for i := range m.Data {
			m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		mats[k] = m
	}
	var ws Workspace
	run := func() {
		ws.Reset()
		res := SVDBatch(&ws, mats)
		_ = res
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("SVDBatch: %v allocs/op, want 0", allocs)
	}
}

// Val returns eigenvalue j (descending) of matrix k.
func (e *EigBatch) Val(k, j int) float64 { return e.Vals[j*e.Count+k] }

// Vec returns entry i of eigenvector j of matrix k.
func (e *EigBatch) Vec(k, i, j int) complex128 {
	return e.Vecs[(i*e.N+j)*e.Count+k]
}

// SVal returns singular value j (descending) of matrix k.
func (r *SVDBatchResult) SVal(k, j int) float64 { return r.S[j*r.Count+k] }
