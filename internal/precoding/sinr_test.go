package precoding

import (
	"math"
	"testing"

	"copa/internal/channel"
	"copa/internal/ofdm"
	"copa/internal/rng"
)

func TestSINRCoefficientsLinearity(t *testing.T) {
	// SINR(p) must equal p · coef while other powers are held fixed.
	src := rng.New(41)
	own := channel.NewLink(src.Split(1), 2, 4, channel.DBToLinear(-60))
	cross := channel.NewLink(src.Split(2), 2, 4, channel.DBToLinear(-66))
	p1, err := Beamforming(own, 2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Beamforming(cross, 2)
	if err != nil {
		t.Fatal(err)
	}
	imp := channel.PerfectHardware()
	noise := channel.NoisePerSubcarrierMW()
	powers := EqualSplit(ofdm.NumSubcarriers, 2, channel.BudgetForAntennasMW(4))
	tx1 := NewTransmission(p1, powers, imp)
	tx2 := NewTransmission(p2, powers, imp)

	coefs := SINRCoefficientsWS(&Workspace{}, own, tx1, cross, tx2, noise)
	sinrs := StreamSINRs(own, tx1, cross, tx2, noise)
	for k := 0; k < ofdm.NumSubcarriers; k += 7 {
		for s := 0; s < 2; s++ {
			want := sinrs[k][s]
			got := coefs[k][s] * powers[k][s]
			if math.Abs(got-want) > 1e-6*want {
				t.Fatalf("k=%d s=%d: coef·p = %g, SINR = %g", k, s, got, want)
			}
		}
	}
}

func TestSINRCoefficientsDefinedForDropped(t *testing.T) {
	src := rng.New(43)
	own := channel.NewLink(src, 2, 4, channel.DBToLinear(-60))
	p, err := Beamforming(own, 2)
	if err != nil {
		t.Fatal(err)
	}
	powers := EqualSplit(ofdm.NumSubcarriers, 2, channel.BudgetForAntennasMW(4))
	powers[5][0] = 0
	tx := NewTransmission(p, powers, channel.PerfectHardware())
	coefs := SINRCoefficientsWS(&Workspace{}, own, tx, nil, nil, channel.NoisePerSubcarrierMW())
	if coefs[5][0] <= 0 {
		t.Error("dropped subcarrier should still have a positive coefficient")
	}
}

func TestWithExpectedResidual(t *testing.T) {
	src := rng.New(45)
	own := channel.NewLink(src.Split(1), 2, 4, channel.DBToLinear(-60))
	cross := channel.NewLink(src.Split(2), 2, 4, channel.DBToLinear(-62))
	pNull, err := Nulling(own, cross, 2)
	if err != nil {
		t.Fatal(err)
	}
	imp := channel.PerfectHardware()
	noise := channel.NoisePerSubcarrierMW()
	powers := EqualSplit(ofdm.NumSubcarriers, 2, channel.BudgetForAntennasMW(4))
	txNull := NewTransmission(pNull, powers, imp)
	pBF, _ := Beamforming(own, 2)
	txOwn := NewTransmission(pBF, powers, imp)

	// Without the residual term, a perfect-CSI null predicts near-SNR
	// SINR; with it, the predicted SINR must drop.
	clean := MeanSINRDB(StreamSINRs(own, txOwn, cross, txNull, noise))
	guarded := MeanSINRDB(StreamSINRs(own, txOwn, cross, txNull.WithExpectedResidual(channel.DBToLinear(-20)), noise))
	if guarded >= clean {
		t.Errorf("expected residual did not lower prediction: %.1f vs %.1f dB", guarded, clean)
	}
	// Zero error: identity.
	same := txNull.WithExpectedResidual(0)
	if same != txNull {
		t.Error("zero residual should return the original transmission")
	}
	// Original untouched by the guarded copy.
	before := txNull.TxNoiseVarMW[0]
	_ = txNull.WithExpectedResidual(channel.DBToLinear(-10))
	if txNull.TxNoiseVarMW[0] != before {
		t.Error("WithExpectedResidual mutated the original")
	}
}

func TestMeanSINRDBEmpty(t *testing.T) {
	if !math.IsInf(MeanSINRDB([][]float64{{Dropped}}), -1) {
		t.Error("all-dropped mean should be -Inf")
	}
}

func TestQuickSINRMonotoneInInterferencePower(t *testing.T) {
	// Raising the interferer's power can never raise the victim's
	// post-MMSE SINR.
	src := rng.New(61)
	own := channel.NewLink(src.Split(1), 2, 4, channel.DBToLinear(-60))
	cross := channel.NewLink(src.Split(2), 2, 4, channel.DBToLinear(-63))
	p1, _ := Beamforming(own, 2)
	p2, _ := Beamforming(cross, 2)
	imp := channel.PerfectHardware()
	noise := channel.NoisePerSubcarrierMW()
	powers := EqualSplit(ofdm.NumSubcarriers, 2, channel.BudgetForAntennasMW(4))
	tx1 := NewTransmission(p1, powers, imp)

	prevMean := math.Inf(1)
	for _, scale := range []float64{0.1, 1, 10} {
		p2powers := EqualSplit(ofdm.NumSubcarriers, 2, scale*channel.BudgetForAntennasMW(4))
		tx2 := NewTransmission(p2, p2powers, imp)
		mean := 0.0
		s := StreamSINRs(own, tx1, cross, tx2, noise)
		for k := range s {
			mean += s[k][0] + s[k][1]
		}
		if mean >= prevMean {
			t.Fatalf("SINR did not fall as interference power grew (scale %g)", scale)
		}
		prevMean = mean
	}
}

func TestNullingOrthogonalToEstimate(t *testing.T) {
	// The nulling precoder must lie exactly in the estimated cross
	// channel's nullspace on every subcarrier.
	src := rng.New(63)
	own := channel.NewLink(src.Split(1), 2, 4, channel.DBToLinear(-60))
	cross := channel.NewLink(src.Split(2), 2, 4, channel.DBToLinear(-63))
	est := channel.DefaultImpairments().EstimateCSI(src.Split(3), cross)
	p, err := Nulling(own, est, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := range est.Subcarriers {
		prod := est.Subcarriers[k].Mul(p.PerSubcarrier[k])
		if prod.MaxAbs() > 1e-10*est.Subcarriers[k].MaxAbs() {
			t.Fatalf("subcarrier %d: precoder not in estimated nullspace (%g)", k, prod.MaxAbs())
		}
	}
}
