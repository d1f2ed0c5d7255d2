package precoding

import (
	"math"
	"testing"

	"copa/internal/channel"
	"copa/internal/ofdm"
	"copa/internal/rng"
)

// sinrCoefficients returns the SINR coefficients StreamSINRsWS writes
// when asked for them.
func sinrCoefficients(own *channel.Link, ownTx *Transmission, cross *channel.Link, crossTx *Transmission, noisePerSCMW float64) [][]float64 {
	var ws Workspace
	coefs := ws.FloatRows(len(own.Subcarriers), ownTx.Precoder.Streams)
	StreamSINRsWS(&ws, own, ownTx, cross, crossTx, noisePerSCMW, coefs)
	return coefs
}

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

	coefs := sinrCoefficients(own, tx1, cross, tx2, noise)
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
	coefs := sinrCoefficients(own, tx, nil, nil, channel.NoisePerSubcarrierMW())
	if coefs[5][0] <= 0 {
		t.Error("dropped subcarrier should still have a positive coefficient")
	}
}

// TestStreamSINRsUnchangedByCoefficients: asking StreamSINRsWS for the
// coefficients as well must leave every SINR entry bit-identical to the
// SINR-only pass, dropped entries included, with and without a cross
// interferer.
func TestStreamSINRsUnchangedByCoefficients(t *testing.T) {
	own := testLink(47, 2, 4, -58)
	cross := testLink(48, 2, 4, -64)
	p1, err := Beamforming(own, 2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Nulling(cross, own, 2)
	if err != nil {
		t.Fatal(err)
	}
	imp := channel.DefaultImpairments()
	noise := channel.NoisePerSubcarrierMW()
	powers := EqualSplit(ofdm.NumSubcarriers, 2, channel.BudgetForAntennasMW(4))
	powers[3][1] = 0
	powers[9][0], powers[9][1] = 0, 0
	tx1 := NewTransmission(p1, powers, imp)
	tx2 := NewTransmission(p2, EqualSplit(ofdm.NumSubcarriers, 2, channel.BudgetForAntennasMW(4)), imp)

	for _, tc := range []struct {
		name    string
		cross   *channel.Link
		crossTx *Transmission
	}{{"solo", nil, nil}, {"cross", cross, tx2}} {
		var ws Workspace
		want := copyRows(StreamSINRsWS(&ws, own, tx1, tc.cross, tc.crossTx, noise, nil))
		ws.Reset()
		coefs := ws.FloatRows(ofdm.NumSubcarriers, 2)
		got := StreamSINRsWS(&ws, own, tx1, tc.cross, tc.crossTx, noise, coefs)
		for k := range want {
			for s := range want[k] {
				if math.Float64bits(got[k][s]) != math.Float64bits(want[k][s]) {
					t.Fatalf("%s k=%d s=%d: SINR %v with coefficients, %v without", tc.name, k, s, got[k][s], want[k][s])
				}
			}
		}
		if got[3][1] != Dropped || got[9][0] != Dropped || coefs[3][1] <= 0 || coefs[9][0] <= 0 {
			t.Fatalf("%s: dropped cells: SINR %v/%v coef %v/%v", tc.name, got[3][1], got[9][0], coefs[3][1], coefs[9][0])
		}
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
