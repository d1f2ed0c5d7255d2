package ofdm

import "math"

// QFunc is the Gaussian tail probability Q(x) = P(N(0,1) > x).
func QFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// modParams holds the constellation constants of UncodedBER, hoisted out
// of the rate-selection hot loop. scale and argDiv are produced by the
// same expressions the scalar switch evaluated per call, so using them is
// bit-identical; they just stop being recomputed per subcarrier.
type modParams struct {
	// kind selects the BER formula: 0 = BPSK, 1 = QPSK, 2 = M-QAM.
	kind int
	// scale is the M-QAM prefactor 4/k·(1−1/√M).
	scale float64
	// argDiv is the M-QAM Q-argument divisor M−1.
	argDiv float64
}

var modTab = func() [4]modParams {
	var tab [4]modParams
	tab[BPSK] = modParams{kind: 0}
	tab[QPSK] = modParams{kind: 1}
	for _, m := range []Modulation{QAM16, QAM64} {
		mm := float64(m.Points())
		k := float64(m.Modulation().BitsPerSymbol())
		tab[m] = modParams{kind: 2, scale: 4 / k * (1 - 1/math.Sqrt(mm)), argDiv: mm - 1}
	}
	return tab
}()

// UncodedBER returns the pre-decoder (raw) bit-error rate of the given
// constellation at the given post-equalization SINR (linear, per symbol).
// Gray mapping and the standard nearest-neighbour approximations are used,
// as in Halperin et al. (SIGCOMM 2010), which the paper follows for
// throughput prediction.
func UncodedBER(m Modulation, sinr float64) float64 {
	if m < 0 || int(m) >= len(modTab) {
		panic("ofdm: unknown modulation")
	}
	return uncodedBER(&modTab[m], sinr)
}

// uncodedBER is UncodedBER against hoisted constellation constants.
func uncodedBER(mp *modParams, sinr float64) float64 {
	if sinr <= 0 {
		return 0.5
	}
	var ber float64
	switch mp.kind {
	case 0: // BPSK
		ber = QFunc(math.Sqrt(2 * sinr))
	case 1: // QPSK per-bit error equals BPSK at half the symbol SNR.
		ber = QFunc(math.Sqrt(sinr))
	default: // square M-QAM
		ber = mp.scale * QFunc(math.Sqrt(3*sinr/mp.argDiv))
	}
	if ber > 0.5 {
		return 0.5
	}
	return ber
}

// Modulation returns m itself; it exists so UncodedBER can be written
// uniformly over Modulation values (M-QAM needs bits-per-symbol).
func (m Modulation) Modulation() Modulation { return m }
