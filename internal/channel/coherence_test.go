package channel

import (
	"math"
	"math/cmplx"
	"testing"

	"copa/internal/rng"
)

func TestMeasureCoherenceTimeMatchesModel(t *testing.T) {
	// The Gauss–Markov evolution decorrelates with exp(−t/tc); the 1/e
	// crossing should land near the configured tc.
	for _, tc := range []float64{0.020, 0.050, 0.200} {
		var sum float64
		const trials = 6
		for trial := 0; trial < trials; trial++ {
			src := rng.New(int64(100*tc*1000) + int64(trial))
			link := NewLink(src.Split(1), 2, 4, 1)
			got := measureCoherenceTime(src.Split(2), link, tc, tc/20, 200)
			sum += got
		}
		mean := sum / trials
		if math.Abs(mean-tc)/tc > 0.35 {
			t.Errorf("tc=%.0f ms: measured %.1f ms (>35%% off)", tc*1e3, mean*1e3)
		}
	}
}

func TestMeasureCoherenceTimeStatic(t *testing.T) {
	src := rng.New(9)
	link := NewLink(src.Split(1), 1, 1, 1)
	got := measureCoherenceTime(src.Split(2), link, math.Inf(1), 0.010, 50)
	if !math.IsInf(got, 1) {
		t.Errorf("static channel measured tc=%g", got)
	}
}

func TestMeasureCoherenceTimeZeroChannel(t *testing.T) {
	link := &Link{Subcarriers: NewLink(rng.New(1), 1, 1, 1).Subcarriers}
	for _, h := range link.Subcarriers {
		for i := range h.Data {
			h.Data[i] = 0
		}
	}
	if !math.IsInf(measureCoherenceTime(rng.New(2), link, 0.05, 0.01, 10), 1) {
		t.Error("zero channel should report +Inf")
	}
}

// measureCoherenceTime empirically estimates a link's coherence time the
// way a real system would: sound the channel repeatedly while it evolves,
// correlate each snapshot against the first, and report the lag at which
// the complex temporal autocorrelation decays to 1/e. The tests use it
// to validate the Gauss–Markov evolution model: the estimate should match
// the configured coherence time.
//
// The link is evolved destructively; pass a Clone if the original matters.
// stepSec is the sounding interval; maxSteps bounds the experiment.
// Returns +Inf if the correlation never decays below 1/e within the
// horizon.
func measureCoherenceTime(src *rng.Source, link *Link, coherenceSec, stepSec float64, maxSteps int) float64 {
	ref := link.Clone()
	refPow := 0.0
	for _, h := range ref.Subcarriers {
		for _, v := range h.Data {
			refPow += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	if refPow == 0 {
		return math.Inf(1)
	}
	threshold := 1 / math.E
	for step := 1; step <= maxSteps; step++ {
		link.Evolve(src.Split(uint64(step)), stepSec, coherenceSec)
		var inner complex128
		for k := range ref.Subcarriers {
			a, b := ref.Subcarriers[k], link.Subcarriers[k]
			for i := range a.Data {
				inner += cmplx.Conj(a.Data[i]) * b.Data[i]
			}
		}
		corr := cmplx.Abs(inner) / refPow
		if corr < threshold {
			// Linear interpolation inside the last step would need the
			// previous correlation; the step granularity is the caller's
			// choice of resolution.
			return float64(step) * stepSec
		}
	}
	return math.Inf(1)
}
