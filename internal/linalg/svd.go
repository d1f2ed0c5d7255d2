package linalg

import (
	"math"
	"math/cmplx"
)

// svdEps is the relative off-diagonal tolerance at which the one-sided
// Jacobi iteration is considered converged.
const svdEps = 1e-13

// svdMaxSweeps bounds the Jacobi iteration. The matrices in this codebase
// are at most a handful of antennas on a side, for which Jacobi converges
// in well under ten sweeps; the bound only guards against pathological
// floating-point behaviour.
const svdMaxSweeps = 64

// SVD computes the full singular value decomposition A = U·Σ·Vᴴ using
// one-sided Jacobi rotations, which are numerically robust for the small,
// possibly rank-deficient channel matrices used in precoding.
//
// U is Rows×Rows unitary, V is Cols×Cols unitary, and s holds the
// min(Rows, Cols) singular values in descending order.
func (m *Matrix) SVD() (u *Matrix, s []float64, v *Matrix) {
	var ws Workspace
	uw, sw, vw := m.SVDWS(&ws)
	return uw.Clone(), append([]float64(nil), sw...), vw.Clone()
}

// SVDWS is SVD with all scratch and result storage carved from ws:
// allocation-free once ws has warmed up. The returned matrices and slice
// live in ws (see Workspace ownership rules).
func (m *Matrix) SVDWS(ws *Workspace) (u *Matrix, s []float64, v *Matrix) {
	rows, cols := m.Rows, m.Cols
	b := ws.Clone(m) // working copy whose columns are orthogonalized in place
	v = ws.Identity(cols)

	// Columns whose norm falls below this floor (relative to ‖A‖_F) are
	// numerically zero: rotating them against each other only churns
	// rounding noise, and at subnormal magnitudes the phase computation
	// loses unitarity. They are excluded from rotations and convergence.
	floor := 1e-14 * m.FrobeniusNorm()

	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < cols-1; p++ {
			for q := p + 1; q < cols; q++ {
				var alpha, beta float64
				var gamma complex128
				for r := 0; r < rows; r++ {
					ap := b.Data[r*cols+p]
					aq := b.Data[r*cols+q]
					alpha += real(ap)*real(ap) + imag(ap)*imag(ap)
					beta += real(aq)*real(aq) + imag(aq)*imag(aq)
					gamma += cmplx.Conj(ap) * aq
				}
				if alpha <= floor*floor || beta <= floor*floor {
					continue
				}
				g := cmplx.Abs(gamma)
				if g <= svdEps*math.Sqrt(alpha*beta) {
					continue
				}
				off += g / math.Sqrt(alpha*beta)

				// Phase-align column q so the pair inner product becomes
				// real, then apply a classic real Jacobi rotation.
				phase := gamma / complex(g, 0) // e^{iφ}
				zeta := (beta - alpha) / (2 * g)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t

				cc := complex(c, 0)
				sc := complex(sn, 0)
				phConj := cmplx.Conj(phase)
				for r := 0; r < rows; r++ {
					ap := b.Data[r*cols+p]
					aq := b.Data[r*cols+q] * phConj
					b.Data[r*cols+p] = cc*ap - sc*aq
					b.Data[r*cols+q] = sc*ap + cc*aq
				}
				for r := 0; r < cols; r++ {
					vp := v.Data[r*cols+p]
					vq := v.Data[r*cols+q] * phConj
					v.Data[r*cols+p] = cc*vp - sc*vq
					v.Data[r*cols+q] = sc*vp + cc*vq
				}
			}
		}
		if off < svdEps {
			break
		}
	}

	// Column norms are the singular values; sort descending.
	norms := ws.Float64s(cols)
	for c := 0; c < cols; c++ {
		var nn float64
		for r := 0; r < rows; r++ {
			x := b.Data[r*cols+c]
			nn += real(x)*real(x) + imag(x)*imag(x)
		}
		norms[c] = math.Sqrt(nn)
	}
	order := ws.Ints(cols)
	for i := range order {
		order[i] = i
	}
	SortOrderDesc(order, norms)

	bs := ws.ColsSlice(b, order)
	v = ws.ColsSlice(v, order)
	sorted := ws.Float64s(cols)
	for i, idx := range order {
		sorted[i] = norms[idx]
	}

	nsv := rows
	if cols < rows {
		nsv = cols
	}
	s = sorted[:nsv]

	// Build U: normalized non-degenerate columns of the rotated matrix,
	// completed to a full orthonormal basis of C^rows.
	u = ws.Matrix(rows, rows)
	smax := 0.0
	if cols > 0 {
		smax = sorted[0]
	}
	col := 0
	for c := 0; c < nsv && col < rows; c++ {
		if sorted[c] > 1e-14*math.Max(1, smax) {
			for r := 0; r < rows; r++ {
				u.Data[r*rows+col] = bs.Data[r*cols+c] / complex(sorted[c], 0)
			}
			col++
		}
	}
	completeBasis(ws, u, col)
	return u, s, v
}

// completeBasis fills columns [have, n) of the n×n matrix u with an
// orthonormal completion of its first `have` (already orthonormal) columns,
// using Gram–Schmidt against the canonical basis. Scratch comes from ws.
func completeBasis(ws *Workspace, u *Matrix, have int) {
	n := u.Rows
	for col := have; col < n; col++ {
		for try := 0; try < n; try++ {
			cand := ws.Complex(n)
			cand[try] = 1
			// Orthogonalize against all existing columns (twice, for
			// numerical hygiene).
			for pass := 0; pass < 2; pass++ {
				for c := 0; c < col; c++ {
					var proj complex128
					for r := 0; r < n; r++ {
						proj += cmplx.Conj(u.Data[r*n+c]) * cand[r]
					}
					for r := 0; r < n; r++ {
						cand[r] -= proj * u.Data[r*n+c]
					}
				}
			}
			if nrm := Norm2(cand); nrm > 1e-6 {
				for r := 0; r < n; r++ {
					cand[r] /= complex(nrm, 0)
				}
				u.SetCol(col, cand)
				break
			}
		}
	}
}

// NullspaceWS returns an orthonormal basis for the right nullspace of m:
// a Cols×k matrix N with m·N ≈ 0, where k = Cols − rank(m). Singular
// values below tol relative to the largest are treated as zero. The
// returned matrix has zero columns when m has full column rank and lives
// in ws (see Workspace ownership rules).
func (m *Matrix) NullspaceWS(ws *Workspace, tol float64) *Matrix {
	_, s, v := m.SVDWS(ws)
	smax := 0.0
	if len(s) > 0 {
		smax = s[0]
	}
	rank := 0
	for _, sv := range s {
		if smax > 0 && sv > tol*smax {
			rank++
		}
	}
	idx := ws.Ints(m.Cols - rank)
	for c := rank; c < m.Cols; c++ {
		idx[c-rank] = c
	}
	return ws.ColsSlice(v, idx)
}
