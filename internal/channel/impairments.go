package channel

import (
	"math"

	"copa/internal/rng"
)

// Impairments models the hardware noise sources §2.2 identifies as the
// cause of residual interference after nulling: receiver noise when
// measuring CSI, and transmitter noise/imperfections when sending the
// nulled signal. Both are expressed relative to the channel (CSI error)
// or the transmitted signal (TX EVM).
type Impairments struct {
	// CSIErrorDB is the per-entry CSI estimation error power relative to
	// the true channel entry's average power (dB, negative). It captures
	// receiver noise during channel measurement and any staleness.
	CSIErrorDB float64

	// TxEVMDB is the transmitter error-vector magnitude: uncorrelated
	// noise radiated at this power relative to the intended signal (dB,
	// negative). It bounds how deep a null can be even with perfect CSI.
	TxEVMDB float64

	// StalenessDB is the additional CSI error present by the time a
	// precoder computed from a measurement is actually transmitted: the
	// channel keeps evolving between measurement and use (the paper's
	// WARP pipeline has a 2–3 s lag; a live system has up to a coherence
	// time). Micro-benchmarks that measure nulling immediately after
	// sounding (Fig. 3) see only CSIErrorDB; end-to-end throughput
	// (Figs. 10–13) sees the combined error.
	StalenessDB float64

	// NullVarSigmaDB is the standard deviation (dB) of a log-normal,
	// frequency-correlated multiplier on the CSI error process. §2.2
	// observes that per-subcarrier nulling efficacy "may vary
	// significantly from subcarrier to subcarrier, even though averaged
	// across subcarriers, nulling reduces interference well": the
	// aggregate of front-end effects a Gaussian error cannot capture
	// (phase noise, IQ imbalance, quantization, aging) widens the
	// per-subcarrier null-depth distribution without moving its dB mean.
	NullVarSigmaDB float64
}

// DefaultImpairments reflects a WARP-class radio: CSI measured at ~30 dB
// effective SNR and a −35 dB transmit EVM. Together with the −27 dB
// leakage floor these calibrate nulling to the paper's Fig. 3: ≈27 dB
// mean INR reduction, ≈8 dB collateral SNR loss.
func DefaultImpairments() Impairments {
	return Impairments{CSIErrorDB: -28, TxEVMDB: -30, StalenessDB: -18, NullVarSigmaDB: 9}
}

// PerfectHardware disables all impairments (idealized nulling).
func PerfectHardware() Impairments {
	return Impairments{CSIErrorDB: -300, TxEVMDB: -300, StalenessDB: -300}
}

// Aged returns the impairment set as seen with CSI that is frac of a
// coherence time old (frac = 0 is a fresh measurement, 1 a full coherence
// time): the staleness error power grows linearly, tripling at frac = 1.
// The map is deterministic, which is what makes quantized CSI ages
// cacheable (internal/serve) and sweepable (internal/campaign).
func (imp Impairments) Aged(frac float64) Impairments {
	if frac <= 0 {
		return imp
	}
	out := imp
	out.StalenessDB = LinearToDB(DBToLinear(imp.StalenessDB) * (1 + 3*frac))
	return out
}

// Stale returns the impairment set as seen at transmission time: the CSI
// error grows to include the channel evolution since measurement.
func (imp Impairments) Stale() Impairments {
	out := imp
	combined := DBToLinear(imp.CSIErrorDB) + DBToLinear(imp.StalenessDB)
	out.CSIErrorDB = LinearToDB(combined)
	return out
}

// EstimateCSI returns the noisy channel estimate a sender holds for the
// true link. The error is not white across subcarriers: in practice it is
// dominated by channel evolution between measurement and use (plus
// measurement noise filtered through the same multipath), so it is itself
// a frequency-selective multipath process — drawn here as an independent
// tapped-delay-line channel at CSIErrorDB relative to the link's mean
// antenna-pair gain. This structure matters: it produces contiguous runs
// of subcarriers where nulls formed on the estimate are shallow, which is
// exactly the per-subcarrier variability §2.2 measures (Fig. 4).
func (imp Impairments) EstimateCSI(src *rng.Source, true_ *Link) *Link {
	errGain := DBToLinear(imp.CSIErrorDB) * true_.MeanGainLinear
	errChan := NewLink(src, true_.NRx(), true_.NTx(), errGain)
	factors := imp.nullVarFactors(src, len(true_.Subcarriers))
	est := true_.Clone()
	for k, h := range est.Subcarriers {
		e := errChan.Subcarriers[k]
		f := complex(factors[k], 0)
		for i := range h.Data {
			h.Data[i] += f * e.Data[i]
		}
	}
	// Taps no longer match the perturbed frequency response; the
	// estimate is only used in the frequency domain.
	est.Taps = nil
	return est
}

// nullVarFactors draws the per-subcarrier log-normal amplitude multiplier
// for the CSI error process: a Gaussian dB-process, smoothed over a few
// adjacent subcarriers (front-end effects are band-correlated), with the
// set normalized to unit mean power so CSIErrorDB keeps its meaning as
// the mean error level.
func (imp Impairments) nullVarFactors(src *rng.Source, n int) []float64 {
	out := make([]float64, n)
	if imp.NullVarSigmaDB <= 0 {
		for k := range out {
			out[k] = 1
		}
		return out
	}
	raw := make([]float64, n)
	for k := range raw {
		raw[k] = src.Norm()
	}
	// Moving-average smoothing (window 5), then rescale to the target
	// dB standard deviation.
	const w = 2
	sm := make([]float64, n)
	for k := range sm {
		var sum float64
		cnt := 0
		for d := -w; d <= w; d++ {
			if k+d >= 0 && k+d < n {
				sum += raw[k+d]
				cnt++
			}
		}
		sm[k] = sum / float64(cnt)
	}
	var mean, varsum float64
	for _, v := range sm {
		mean += v
	}
	mean /= float64(n)
	for _, v := range sm {
		varsum += (v - mean) * (v - mean)
	}
	sd := 1.0
	if varsum > 0 {
		sd = math.Sqrt(varsum / float64(n))
	}
	var powSum float64
	for k := range out {
		db := (sm[k] - mean) / sd * imp.NullVarSigmaDB
		out[k] = math.Pow(10, db/20)
		powSum += out[k] * out[k]
	}
	// Normalize mean power to 1.
	scale := math.Sqrt(float64(n) / powSum)
	for k := range out {
		out[k] *= scale
	}
	return out
}
