package channel

import (
	"math"
	"math/cmplx"
	"sync"

	"copa/internal/linalg"
	"copa/internal/ofdm"
	"copa/internal/rng"
)

// TDL parameters for an indoor office: 8 resolvable taps at the 50 ns
// sample spacing of a 20 MHz channel with ≈50 ns RMS delay spread. These
// values produce the deep, narrow-band per-subcarrier fades of the paper's
// Fig. 2.
const (
	// NumTaps is the number of resolvable multipath taps.
	NumTaps = 8

	// rmsDelaySpreadTaps is the RMS delay spread expressed in units of
	// the 50 ns sample period.
	rmsDelaySpreadTaps = 1.5
)

// tapPowers returns the exponential power-delay profile, normalized so the
// taps sum to unit power.
func tapPowers() []float64 {
	p := make([]float64, NumTaps)
	var sum float64
	for l := range p {
		p[l] = math.Exp(-float64(l) / rmsDelaySpreadTaps)
		sum += p[l]
	}
	for l := range p {
		p[l] /= sum
	}
	return p
}

// Link is a frequency-selective MIMO channel between one sender and one
// receiver: one Nr×Nt complex matrix per OFDM data subcarrier. Matrix
// entries are amplitude gains: received power on subcarrier k for a unit
// transmit vector x is ‖H[k]·x‖².
type Link struct {
	// Subcarriers[k] is the channel matrix on data subcarrier k.
	Subcarriers []*linalg.Matrix

	// Taps holds the underlying time-domain taps, taps[l] an Nr×Nt
	// matrix, retained so the channel can be evolved in time.
	Taps []*linalg.Matrix

	// MeanGainLinear is the average per-subcarrier power gain of the
	// link (linear, per TX–RX antenna pair), i.e. the path-loss scale
	// the taps were drawn with.
	MeanGainLinear float64

	// plan is the cached DFT twiddle plan for this link's tap count,
	// fetched lazily on the first frequency-response computation.
	plan *dftPlan
}

// dftPlan holds the precomputed DFT twiddle factors for one tap count:
// w[k*taps+tap] = e^{-2πi·bin(k)·tap/64}. Plans are immutable and shared
// process-wide; every link with the same tap count reuses one plan.
type dftPlan struct {
	taps int
	w    []complex128
}

var (
	dftPlanMu sync.Mutex
	dftPlans  map[int]*dftPlan
)

// dftPlanFor returns the (possibly cached) twiddle plan for a tap count.
func dftPlanFor(taps int) *dftPlan {
	dftPlanMu.Lock()
	defer dftPlanMu.Unlock()
	if p, ok := dftPlans[taps]; ok {
		return p
	}
	p := &dftPlan{taps: taps, w: make([]complex128, ofdm.NumSubcarriers*taps)}
	for k := 0; k < ofdm.NumSubcarriers; k++ {
		bin := dataSubcarrierBin(k)
		for tap := 0; tap < taps; tap++ {
			p.w[k*taps+tap] = cmplx.Exp(complex(0, -2*math.Pi*float64(bin)*float64(tap)/ofdm.FFTSize))
		}
	}
	if dftPlans == nil {
		dftPlans = make(map[int]*dftPlan)
	}
	dftPlans[taps] = p
	return p
}

// NRx returns the number of receive antennas.
func (l *Link) NRx() int { return l.Subcarriers[0].Rows }

// NTx returns the number of transmit antennas.
func (l *Link) NTx() int { return l.Subcarriers[0].Cols }

// AntennaCorrelation is the adjacent-element spatial correlation of
// colocated antenna arrays (exponential Kronecker model, ρ^|i−j|).
// Half-wavelength-spaced elements in an indoor office exhibit substantial
// correlation; without it, i.i.d. Rayleigh fading gives MIMO links an
// unrealistically flat effective frequency response, hiding the
// per-subcarrier variability COPA exploits (Fig. 4).
const AntennaCorrelation = 0.4

// correlationRoot returns the Cholesky factor of the n×n exponential
// correlation matrix R[i][j] = ρ^|i−j| (identity for n = 1).
func correlationRoot(n int, rho float64) *linalg.Matrix {
	r := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r.Set(i, j, complex(math.Pow(rho, math.Abs(float64(i-j))), 0))
		}
	}
	l, err := r.Cholesky()
	if err != nil {
		// ρ < 1 keeps R positive definite; this cannot happen for the
		// constants used here.
		panic("channel: correlation matrix not PD: " + err.Error())
	}
	return l
}

// NewLink draws a random frequency-selective Nr×Nt link whose average
// per-antenna-pair power gain is gainLinear (e.g. 10^(−pathLossDB/10)).
// Fading is Rayleigh per tap with an exponential power-delay profile and
// Kronecker spatial correlation across both antenna arrays.
func NewLink(src *rng.Source, nRx, nTx int, gainLinear float64) *Link {
	pdp := tapPowers()
	lRx := correlationRoot(nRx, AntennaCorrelation)
	lTx := correlationRoot(nTx, AntennaCorrelation)
	taps := make([]*linalg.Matrix, NumTaps)
	for l := 0; l < NumTaps; l++ {
		g := linalg.NewMatrix(nRx, nTx)
		variance := pdp[l] * gainLinear
		for i := range g.Data {
			g.Data[i] = src.CN(variance)
		}
		// H = L_rx · G · L_txᵀ preserves per-entry variance (diag(R)=1)
		// while correlating rows and columns.
		taps[l] = lRx.Mul(g).Mul(lTx.T())
	}
	link := &Link{Taps: taps, MeanGainLinear: gainLinear}
	link.recomputeFrequencyResponse()
	return link
}

// recomputeFrequencyResponse rebuilds the per-subcarrier matrices from the
// time-domain taps via the DFT over the 64-point FFT grid, evaluated at
// the data subcarrier bins. Existing subcarrier matrices are reused.
func (l *Link) recomputeFrequencyResponse() {
	if len(l.Subcarriers) != ofdm.NumSubcarriers {
		l.Subcarriers = make([]*linalg.Matrix, ofdm.NumSubcarriers)
	}
	for k := 0; k < ofdm.NumSubcarriers; k++ {
		l.RecomputeSubcarrier(k)
	}
}

// RecomputeSubcarrier rebuilds the frequency response of data subcarrier k
// from the time-domain taps using the cached twiddle plan, reusing the
// existing matrix storage when shapes match: allocation-free in steady
// state (e.g. when re-evaluating an evolved channel).
func (l *Link) RecomputeSubcarrier(k int) {
	nRx, nTx := l.Taps[0].Rows, l.Taps[0].Cols
	plan := l.plan
	if plan == nil || plan.taps != len(l.Taps) {
		plan = dftPlanFor(len(l.Taps))
		l.plan = plan
	}
	h := l.Subcarriers[k]
	if h == nil || h.Rows != nRx || h.Cols != nTx {
		h = linalg.NewMatrix(nRx, nTx)
		l.Subcarriers[k] = h
	} else {
		clear(h.Data)
	}
	for tap := range l.Taps {
		w := plan.w[k*plan.taps+tap]
		for i, v := range l.Taps[tap].Data {
			h.Data[i] += v * w
		}
	}
}

// dataSubcarrierBin maps data subcarrier index k ∈ [0, 52) to its FFT bin
// in [-26, 26] skipping DC, mirroring 802.11n's 20 MHz HT layout.
func dataSubcarrierBin(k int) int {
	bin := k - ofdm.NumSubcarriers/2
	if bin >= 0 {
		bin++ // skip DC
	}
	return bin
}

// Transpose returns the reciprocal link (receiver and sender roles
// swapped): H_rev[k] = H[k]ᵀ, per over-the-air reciprocity (§3.1).
func (l *Link) Transpose() *Link {
	taps := make([]*linalg.Matrix, len(l.Taps))
	for i, t := range l.Taps {
		taps[i] = t.T()
	}
	out := &Link{Taps: taps, MeanGainLinear: l.MeanGainLinear}
	out.Subcarriers = make([]*linalg.Matrix, len(l.Subcarriers))
	for k, h := range l.Subcarriers {
		out.Subcarriers[k] = h.T()
	}
	return out
}

// Clone deep-copies the link.
func (l *Link) Clone() *Link {
	taps := make([]*linalg.Matrix, len(l.Taps))
	for i, t := range l.Taps {
		taps[i] = t.Clone()
	}
	subs := make([]*linalg.Matrix, len(l.Subcarriers))
	for i, h := range l.Subcarriers {
		subs[i] = h.Clone()
	}
	return &Link{Taps: taps, Subcarriers: subs, MeanGainLinear: l.MeanGainLinear}
}

// Scale multiplies the link's amplitude response by √factor (i.e. its
// power gain by factor), returning a new link. Used for the Fig. 12
// "interference −10 dB" emulation.
func (l *Link) Scale(powerFactor float64) *Link {
	amp := complex(math.Sqrt(powerFactor), 0)
	out := l.Clone()
	for _, t := range out.Taps {
		for i := range t.Data {
			t.Data[i] *= amp
		}
	}
	for _, h := range out.Subcarriers {
		for i := range h.Data {
			h.Data[i] *= amp
		}
	}
	out.MeanGainLinear *= powerFactor
	return out
}

// WithoutRxAntenna returns a copy of the link with receive antenna idx
// removed — the client-side view after COPA's shut-down-antenna (SDA)
// rank reduction in the overconstrained case (§3.4).
func (l *Link) WithoutRxAntenna(idx int) *Link {
	keep := make([]int, 0, l.NRx()-1)
	for r := 0; r < l.NRx(); r++ {
		if r != idx {
			keep = append(keep, r)
		}
	}
	out := &Link{MeanGainLinear: l.MeanGainLinear}
	if l.Taps != nil {
		out.Taps = make([]*linalg.Matrix, len(l.Taps))
		for i, t := range l.Taps {
			out.Taps[i] = t.RowsSlice(keep...)
		}
	}
	out.Subcarriers = make([]*linalg.Matrix, len(l.Subcarriers))
	for i, h := range l.Subcarriers {
		out.Subcarriers[i] = h.RowsSlice(keep...)
	}
	return out
}

// Evolve advances the channel in time by dt seconds under a first-order
// Gauss–Markov model: each tap decorrelates with the channel coherence
// time tc, tap ← ρ·tap + √(1−ρ²)·innovation, preserving per-tap power.
// ρ = exp(−dt/tc) ≈ the envelope autocorrelation decay. The frequency
// response is recomputed.
func (l *Link) Evolve(src *rng.Source, dt, coherenceTime float64) {
	if math.IsInf(coherenceTime, 1) || dt <= 0 {
		return
	}
	l.EvolveRho(src, math.Exp(-dt/coherenceTime))
}

// EvolveRho is the AR(1) evolution step with an explicit per-step tap
// correlation ρ ∈ [0, 1]: tap ← ρ·tap + √(1−ρ²)·innovation, preserving
// per-tap power, with the innovation drawn under the same Kronecker
// spatial correlation as the original realization. Callers that model a
// specific Doppler spectrum (internal/drift uses the Jakes-shaped
// ρ = J₀(2π·f_d·dt)) supply ρ directly instead of the Gauss–Markov
// exp(−dt/tc). ρ ≥ 1 is a no-op — a static channel (speed 0) is not
// touched at all, so its realization stays byte-identical.
func (l *Link) EvolveRho(src *rng.Source, rho float64) {
	if rho >= 1 {
		return
	}
	if rho < 0 {
		rho = 0
	}
	inno := math.Sqrt(1 - rho*rho)
	pdp := tapPowers()
	nRx, nTx := l.Taps[0].Rows, l.Taps[0].Cols
	lRx := correlationRoot(nRx, AntennaCorrelation)
	lTx := correlationRoot(nTx, AntennaCorrelation)
	for tap := 0; tap < NumTaps; tap++ {
		variance := pdp[tap] * l.MeanGainLinear
		g := linalg.NewMatrix(nRx, nTx)
		for i := range g.Data {
			g.Data[i] = src.CN(variance)
		}
		fresh := lRx.Mul(g).Mul(lTx.T())
		m := l.Taps[tap]
		for i := range m.Data {
			m.Data[i] = complex(rho, 0)*m.Data[i] + complex(inno, 0)*fresh.Data[i]
		}
	}
	l.recomputeFrequencyResponse()
}
