// Package precoding computes the transmit precoding matrices COPA uses
// (§3.3): SVD transmit beamforming that maximizes power at the intended
// receiver, and nullspace-projection nulling that cancels a sender's
// signal at every antenna of the unintended receiver while beamforming
// within the remaining degrees of freedom. It also provides the MMSE
// receive model: post-MMSE per-stream SINRs under concurrent interfering
// transmissions, which everything downstream (power allocation, strategy
// prediction) is built on.
package precoding

import (
	"errors"
	"math"

	"copa/internal/channel"
	"copa/internal/linalg"
)

// rankTol is the relative singular-value threshold for rank decisions.
const rankTol = 1e-9

// ErrOverconstrained is returned when a sender lacks the spatial degrees
// of freedom to send the requested streams while nulling at every antenna
// of the unintended receiver (§3.4).
var ErrOverconstrained = errors.New("precoding: not enough antennas to null and send the requested streams")

// Precoder holds one sender's per-subcarrier precoding matrices. Each
// matrix is Nt×Ns with orthonormal columns; per-stream transmit power is
// applied separately, so a column carries unit power until scaled.
type Precoder struct {
	// PerSubcarrier[k] is the Nt×Ns precoding matrix on data subcarrier k.
	PerSubcarrier []*linalg.Matrix
	// Streams is Ns.
	Streams int
}

// NTx returns the number of transmit antennas the precoder drives.
func (p *Precoder) NTx() int { return p.PerSubcarrier[0].Rows }

// canonicalize removes the SVD's per-column phase ambiguity: each column
// is rotated so its entry in the first row whose magnitude is significant
// is real and positive. The rotation is transparent to the receiver (a
// per-stream constant phase is absorbed by channel estimation) and makes
// precoders vary smoothly across subcarriers, which both stabilizes the
// iterative allocation and lets the CSI codec delta-encode them.
func canonicalize(m *linalg.Matrix) {
	for c := 0; c < m.Cols; c++ {
		// Pick the first row carrying a meaningful share of the column.
		ref := complex128(0)
		for r := 0; r < m.Rows; r++ {
			if v := m.At(r, c); real(v)*real(v)+imag(v)*imag(v) > 1e-6 {
				ref = v
				break
			}
		}
		if ref == 0 {
			continue
		}
		mag := math.Hypot(real(ref), imag(ref))
		rot := complex(real(ref)/mag, -imag(ref)/mag)
		for r := 0; r < m.Rows; r++ {
			m.Set(r, c, m.At(r, c)*rot)
		}
	}
}

// Beamforming builds the SVD transmit-beamforming precoder toward the
// receiver of csi: on each subcarrier the precoder is the top `streams`
// right singular vectors of the channel, which maximize received power
// per stream (§3.3).
func Beamforming(csi *channel.Link, streams int) (*Precoder, error) {
	var ws Workspace
	return BeamformingInto(&ws, nil, csi, streams)
}

// NullingDOF returns the number of streams a sender with nTx antennas can
// transmit while nulling at nVictim receive antennas: its nullspace
// dimension, assuming a full-rank cross channel.
func NullingDOF(nTx, nVictim int) int {
	d := nTx - nVictim
	if d < 0 {
		return 0
	}
	return d
}

// Nulling builds the nulling precoder of §3.3: on each subcarrier the
// transmission is projected onto the nullspace of the cross channel (so
// it cancels at every antenna of the unintended receiver), and the SVD of
// the projected own channel beamforms the requested streams within that
// nullspace.
//
// own is the sender→own-client CSI, cross the sender→unintended-client
// CSI (both typically noisy estimates). ErrOverconstrained is returned
// when the nullspace is smaller than the requested stream count — the
// §3.4 situation.
func Nulling(own, cross *channel.Link, streams int) (*Precoder, error) {
	var ws Workspace
	return NullingInto(&ws, nil, own, cross, streams)
}

// Scaled returns the precoding matrix for subcarrier k with column i
// scaled to carry powersMW[i] milliwatts (amplitude √p).
func (p *Precoder) Scaled(k int, powersMW []float64) *linalg.Matrix {
	return scaleColumns(p.PerSubcarrier[k].Clone(), powersMW)
}

// scaleColumns scales column c of m in place to carry powersMW[c]
// milliwatts (amplitude √p) and returns m.
func scaleColumns(m *linalg.Matrix, powersMW []float64) *linalg.Matrix {
	if len(powersMW) != m.Cols {
		panic("precoding: power vector length mismatch")
	}
	for c, pw := range powersMW {
		amp := complex(math.Sqrt(math.Max(0, pw)), 0)
		for r := 0; r < m.Rows; r++ {
			m.Set(r, c, m.At(r, c)*amp)
		}
	}
	return m
}

// DirectMap returns the stock 802.11n spatial mapping used without
// transmit-side CSI: each spatial stream is expanded across its share of
// the transmit antennas (stream s drives antennas a with a mod streams ==
// s, equally weighted). With one stream per antenna this is direct
// mapping; with more antennas than streams it is spatial expansion. This
// is the CSMA baseline's precoder — no beamforming gain, no nulling.
func DirectMap(nTx, streams, subcarriers int) *Precoder {
	if streams < 1 || streams > nTx {
		panic("precoding: DirectMap stream count out of range")
	}
	proto := linalg.NewMatrix(nTx, streams)
	counts := make([]int, streams)
	for a := 0; a < nTx; a++ {
		counts[a%streams]++
	}
	for a := 0; a < nTx; a++ {
		s := a % streams
		proto.Set(a, s, complex(1/math.Sqrt(float64(counts[s])), 0))
	}
	p := &Precoder{Streams: streams, PerSubcarrier: make([]*linalg.Matrix, subcarriers)}
	for k := range p.PerSubcarrier {
		p.PerSubcarrier[k] = proto.Clone()
	}
	return p
}
