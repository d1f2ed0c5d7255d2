package precoding

import (
	"fmt"

	"copa/internal/channel"
	"copa/internal/linalg"
)

// Workspace is the scratch arena for the allocation-free precoding paths:
// the *WS SINR kernels and the *Into precoder builders. It embeds
// linalg.Workspace, so one arena backs both layers and the linalg
// ownership rules apply unchanged: values returned by *WS functions live
// in the workspace until the owner calls Reset, *WS functions never Reset,
// and a Workspace must not be shared between goroutines.
//
// The *Into builders are the exception: they treat the workspace as
// exclusively theirs for the duration of the call (resetting it per
// subcarrier) and return heap-backed results — callers must not hold
// workspace-carved values across such a call.
type Workspace struct {
	linalg.Workspace
}

// covarianceWS carves this transmission's received covariance at a
// receiver with true channel h (Nr×Nt) on subcarrier k from ws, together
// with the effective columns g = h·scaled (power already applied) it is
// built from.
func (t *Transmission) covarianceWS(ws *Workspace, h *linalg.Matrix, k int) (cov, g *linalg.Matrix) {
	g = ws.Mul(h, scaleColumns(ws.Clone(t.Precoder.PerSubcarrier[k]), t.PowerMW[k]))
	cov = ws.Mul(g, ws.H(g))
	if v := t.TxNoiseVarMW[k]; v > 0 {
		hh := ws.Mul(h, ws.H(h))
		cv := complex(v, 0)
		for i := range cov.Data {
			cov.Data[i] += hh.Data[i] * cv
		}
	}
	return cov, g
}

// StreamSINRsWS is StreamSINRs with all scratch and result storage carved
// from ws: allocation-free once ws has warmed up. The returned matrix
// lives in ws (see Workspace ownership rules). It is the one place the
// MMSE receive covariance R is built.
//
// A non-nil coefs (one row of ownTx.Precoder.Streams entries per
// subcarrier) also receives the linearized SINR: coefs[k][s] is the SINR
// per milliwatt stream s would see on subcarrier k with every other
// stream, own and interfering, held at its current power — the quantity
// COPA's per-stream allocation step (Fig. 6) needs. Q_s excludes stream
// s's own signal, so it does not depend on p_s and SINR_s = p_s·coefs_s;
// the coefficient is therefore defined even where the stream is dropped.
// Callers that only need the SINRs pass nil and skip the second solve.
func StreamSINRsWS(ws *Workspace, own *channel.Link, ownTx *Transmission, cross *channel.Link, crossTx *Transmission, noisePerSCMW float64, coefs [][]float64) [][]float64 {
	nSC := len(own.Subcarriers)
	out := ws.FloatRows(nSC, ownTx.Precoder.Streams)
	for k := 0; k < nSC; k++ {
		h := own.Subcarriers[k]
		nr := h.Rows
		// R = own signal + own TX noise + cross interference + thermal noise.
		r, a := ownTx.covarianceWS(ws, h, k)
		if cross != nil && crossTx != nil {
			cov, _ := crossTx.covarianceWS(ws, cross.Subcarriers[k], k)
			for i := range r.Data {
				r.Data[i] += cov.Data[i]
			}
		}
		for i := 0; i < nr; i++ {
			r.Set(i, i, r.At(i, i)+complex(noisePerSCMW, 0))
		}
		var unit *linalg.Matrix // unit-power columns h·P
		if coefs != nil {
			unit = ws.Mul(h, ownTx.Precoder.PerSubcarrier[k])
		}

		sinrs := out[k]
		for s := range sinrs {
			sinrs[s] = Dropped
			live := ownTx.PowerMW[k][s] > 0
			if !live && coefs == nil {
				continue
			}
			ai := ws.Col(a, s)
			// Q_s = R − a_s·a_sᴴ
			q := ws.Clone(r)
			for ri := 0; ri < nr; ri++ {
				for ci := 0; ci < nr; ci++ {
					q.Set(ri, ci, q.At(ri, ci)-ai[ri]*conj(ai[ci]))
				}
			}
			if live {
				if v, ok := quadFormWS(ws, q, ai); ok {
					sinrs[s] = v
				}
			}
			if coefs != nil {
				coefs[k][s], _ = quadFormWS(ws, q, ws.Col(unit, s))
			}
		}
	}
	return out
}

// quadFormWS returns vᴴ·Q⁻¹·v clamped at zero, or ok = false (and 0) when
// Q is singular.
func quadFormWS(ws *Workspace, q *linalg.Matrix, v []complex128) (float64, bool) {
	x, err := q.SolveWS(&ws.Workspace, v)
	if err != nil {
		return 0, false
	}
	c := real(linalg.Dot(v, x))
	if c < 0 {
		c = 0
	}
	return c, true
}

// reusePrecoder prepares dst (allocating it if nil) to hold an
// nSC-subcarrier precoder with the given stream count.
func reusePrecoder(dst *Precoder, streams, nSC int) *Precoder {
	if dst == nil {
		dst = &Precoder{}
	}
	dst.Streams = streams
	if len(dst.PerSubcarrier) != nSC {
		dst.PerSubcarrier = make([]*linalg.Matrix, nSC)
	}
	return dst
}

// storeMatrix copies src (typically workspace-carved) into the heap-backed
// matrix into, reusing its storage when shapes match.
func storeMatrix(into, src *linalg.Matrix) *linalg.Matrix {
	if into == nil || into.Rows != src.Rows || into.Cols != src.Cols {
		return src.Clone()
	}
	copy(into.Data, src.Data)
	return into
}

// svGapTol is the relative singular-value gap below which the batched
// Gram-eig path considers neighbouring singular directions entangled and
// routes the subcarrier to the scalar SVD reference instead. At gaps
// above ~1e-4·σmax the Gram eigenvectors are accurate to ≲1e-8, well
// inside the kernel-equivalence tolerance (DESIGN §13).
const svGapTol = 1e-4

// BeamformingInto is Beamforming with scratch carved from ws and the
// result written into dst (allocated if nil, matrix storage reused when
// shapes match). The caller must not hold any ws-carved values across
// this call (the workspace is reset internally); the returned precoder is
// heap-backed and independent of ws.
//
// All subcarriers run through the batched Gram-eig kernels
// (linalg.SVDBatch) in one dispatch; subcarriers whose leading singular
// directions the batch cannot certify (near-tied singular values) fall
// back to the per-subcarrier scalar reference, so results match
// BeamformingIntoScalar within the documented kernel-equivalence
// tolerance on every input.
func BeamformingInto(ws *Workspace, dst *Precoder, csi *channel.Link, streams int) (*Precoder, error) {
	if streams < 1 || streams > csi.NTx() || streams > csi.NRx() {
		return nil, fmt.Errorf("precoding: cannot send %d streams over a %dx%d channel",
			streams, csi.NRx(), csi.NTx())
	}
	nSC := len(csi.Subcarriers)
	dst = reusePrecoder(dst, streams, nSC)
	ws.Reset()
	res := linalg.SVDBatch(&ws.Workspace, csi.Subcarriers)
	nt := csi.NTx()
	fallback := ws.Ints(nSC)
	nFall := 0
	pc := ws.Matrix(nt, streams)
	for k := 0; k < nSC; k++ {
		if !res.TopSeparated(k, streams, svGapTol) {
			fallback[nFall] = k
			nFall++
			continue
		}
		res.VColsInto(pc, k, 0, streams)
		canonicalize(pc)
		dst.PerSubcarrier[k] = storeMatrix(dst.PerSubcarrier[k], pc)
	}
	for _, k := range snapshotFallback(fallback[:nFall]) {
		ws.Reset()
		beamformSubcarrierScalar(ws, dst, csi, streams, k)
	}
	return dst, nil
}

// snapshotFallback copies a ws-carved fallback index list to the heap.
// The scalar fallback loop resets the workspace per subcarrier, which
// would let the scalar kernels' own carves reuse — and clear — the
// chunk backing the list while it is still being ranged over, silently
// skipping every fallback subcarrier after the first. The fallback path
// is rare (near-tied singular values), so the copy is off the hot path;
// nil when empty keeps the common all-certified case allocation-free.
func snapshotFallback(fallback []int) []int {
	if len(fallback) == 0 {
		return nil
	}
	return append([]int(nil), fallback...)
}

// BeamformingIntoScalar is the per-subcarrier scalar reference path of
// BeamformingInto: one SVDWS per subcarrier, exactly the pre-batch
// implementation. The kernel-equivalence tests cross-check the batched
// path against it.
func BeamformingIntoScalar(ws *Workspace, dst *Precoder, csi *channel.Link, streams int) (*Precoder, error) {
	if streams < 1 || streams > csi.NTx() || streams > csi.NRx() {
		return nil, fmt.Errorf("precoding: cannot send %d streams over a %dx%d channel",
			streams, csi.NRx(), csi.NTx())
	}
	dst = reusePrecoder(dst, streams, len(csi.Subcarriers))
	for k := range csi.Subcarriers {
		ws.Reset()
		beamformSubcarrierScalar(ws, dst, csi, streams, k)
	}
	return dst, nil
}

// beamformSubcarrierScalar computes subcarrier k of a beamforming
// precoder via the scalar SVD reference and stores it into dst.
func beamformSubcarrierScalar(ws *Workspace, dst *Precoder, csi *channel.Link, streams, k int) {
	_, _, v := csi.Subcarriers[k].SVDWS(&ws.Workspace)
	idx := ws.Ints(streams)
	for i := range idx {
		idx[i] = i
	}
	pc := ws.ColsSlice(v, idx)
	canonicalize(pc)
	dst.PerSubcarrier[k] = storeMatrix(dst.PerSubcarrier[k], pc)
}

// NullingInto is Nulling with scratch carved from ws and the result
// written into dst (allocated if nil, matrix storage reused when shapes
// match). The caller must not hold any ws-carved values across this call
// (the workspace is reset internally); the returned precoder is
// heap-backed and independent of ws.
//
// Both SVDs of the nulling construction run batched: one SVDBatch over
// the victim channels determines the nullspaces (only where
// linalg.NullspaceDim can certify the rank decision the scalar reference
// would make — full-row-rank victims, the ubiquitous case), and a second
// SVDBatch over the effective in-nullspace channels picks the beamforming
// directions. The final precoder columns are basis-independent — they are
// the top singular directions of the own channel restricted to the
// nullspace subspace — so certified subcarriers agree with
// NullingIntoScalar to the documented tolerance even though the two paths
// use different orthonormal nullspace bases internally. Uncertified or
// gap-deficient subcarriers take the scalar path.
func NullingInto(ws *Workspace, dst *Precoder, own, cross *channel.Link, streams int) (*Precoder, error) {
	if own.NTx() != cross.NTx() {
		return nil, fmt.Errorf("precoding: own/cross antenna mismatch %d vs %d", own.NTx(), cross.NTx())
	}
	if streams < 1 || streams > own.NRx() {
		return nil, fmt.Errorf("precoding: cannot deliver %d streams to a %d-antenna client",
			streams, own.NRx())
	}
	nSC := len(own.Subcarriers)
	dst = reusePrecoder(dst, streams, nSC)
	ws.Reset()

	nt := own.NTx()
	maxRank := cross.NRx()
	if nt < maxRank {
		maxRank = nt
	}
	res := linalg.SVDBatch(&ws.Workspace, cross.Subcarriers)

	fallback := ws.Ints(nSC)
	nFall := 0
	certified := ws.Ints(nSC)
	nCert := 0
	nulls := ws.MatrixPtrs(nSC)
	hes := ws.MatrixPtrs(nSC)
	for k := 0; k < nSC; k++ {
		dim, ok := res.NullspaceDim(k, maxRank, rankTol)
		if !ok {
			fallback[nFall] = k
			nFall++
			continue
		}
		if dim < streams {
			return nil, fmt.Errorf("%w: nullspace dim %d < %d streams (nTx=%d, victim antennas=%d)",
				ErrOverconstrained, dim, streams, own.NTx(), cross.NRx())
		}
		null := ws.Matrix(nt, dim)
		res.VColsInto(null, k, nt-dim, nt)
		nulls[k] = null
		hes[nCert] = ws.Mul(own.Subcarriers[k], null)
		certified[nCert] = k
		nCert++
	}

	if nCert > 0 {
		heRes := linalg.SVDBatch(&ws.Workspace, hes[:nCert])
		for idx := 0; idx < nCert; idx++ {
			k := certified[idx]
			if !heRes.TopSeparated(idx, streams, svGapTol) {
				fallback[nFall] = k
				nFall++
				continue
			}
			dim := nulls[k].Cols
			v := ws.Matrix(dim, streams)
			heRes.VColsInto(v, idx, 0, streams)
			pc := ws.Mul(nulls[k], v)
			canonicalize(pc)
			dst.PerSubcarrier[k] = storeMatrix(dst.PerSubcarrier[k], pc)
		}
	}

	for _, k := range snapshotFallback(fallback[:nFall]) {
		ws.Reset() // batch results are dead past this point; stores are heap-backed
		if err := nullSubcarrierScalar(ws, dst, own, cross, streams, k); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// NullingIntoScalar is the per-subcarrier scalar reference path of
// NullingInto: NullspaceWS + SVDWS per subcarrier, exactly the pre-batch
// implementation. The kernel-equivalence tests cross-check the batched
// path against it.
func NullingIntoScalar(ws *Workspace, dst *Precoder, own, cross *channel.Link, streams int) (*Precoder, error) {
	if own.NTx() != cross.NTx() {
		return nil, fmt.Errorf("precoding: own/cross antenna mismatch %d vs %d", own.NTx(), cross.NTx())
	}
	if streams < 1 || streams > own.NRx() {
		return nil, fmt.Errorf("precoding: cannot deliver %d streams to a %d-antenna client",
			streams, own.NRx())
	}
	dst = reusePrecoder(dst, streams, len(own.Subcarriers))
	for k := range own.Subcarriers {
		ws.Reset()
		if err := nullSubcarrierScalar(ws, dst, own, cross, streams, k); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// nullSubcarrierScalar computes subcarrier k of a nulling precoder via
// the scalar reference (NullspaceWS + SVDWS) and stores it into dst.
func nullSubcarrierScalar(ws *Workspace, dst *Precoder, own, cross *channel.Link, streams, k int) error {
	null := cross.Subcarriers[k].NullspaceWS(&ws.Workspace, rankTol)
	if null.Cols < streams {
		return fmt.Errorf("%w: nullspace dim %d < %d streams (nTx=%d, victim antennas=%d)",
			ErrOverconstrained, null.Cols, streams, own.NTx(), cross.NRx())
	}
	// Effective channel inside the nullspace, then beamform there.
	he := ws.Mul(own.Subcarriers[k], null)
	_, _, v := he.SVDWS(&ws.Workspace)
	idx := ws.Ints(streams)
	for i := range idx {
		idx[i] = i
	}
	pc := ws.Mul(null, ws.ColsSlice(v, idx))
	canonicalize(pc)
	dst.PerSubcarrier[k] = storeMatrix(dst.PerSubcarrier[k], pc)
	return nil
}
