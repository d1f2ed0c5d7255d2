package channel

import (
	"math"
	"testing"

	"copa/internal/rng"
)

func TestStaleCombinesErrors(t *testing.T) {
	imp := Impairments{CSIErrorDB: -28, TxEVMDB: -30, StalenessDB: -18}
	stale := imp.Stale()
	// Combined power: 10^-2.8 + 10^-1.8 ≈ 10^-1.76.
	want := LinearToDB(DBToLinear(-28) + DBToLinear(-18))
	if math.Abs(stale.CSIErrorDB-want) > 1e-9 {
		t.Errorf("stale error %.2f dB, want %.2f", stale.CSIErrorDB, want)
	}
	// Other fields untouched.
	if stale.TxEVMDB != -30 || stale.StalenessDB != -18 {
		t.Error("Stale mutated unrelated fields")
	}
	// Perfect hardware stays essentially perfect.
	p := PerfectHardware().Stale()
	if p.CSIErrorDB > -250 {
		t.Errorf("perfect hardware staleness: %.1f dB", p.CSIErrorDB)
	}
}

func TestNullVarFactorsNormalization(t *testing.T) {
	imp := Impairments{NullVarSigmaDB: 9}
	src := rng.New(5)
	f := imp.nullVarFactors(src, 52)
	if len(f) != 52 {
		t.Fatal("length")
	}
	var pow float64
	spread := false
	for _, v := range f {
		if v <= 0 {
			t.Fatal("non-positive factor")
		}
		pow += v * v
		if v > 1.5 || v < 0.67 {
			spread = true
		}
	}
	if math.Abs(pow/52-1) > 1e-9 {
		t.Errorf("mean power %.3f, want 1", pow/52)
	}
	if !spread {
		t.Error("σ=9 dB factors should vary materially")
	}
	// σ=0: all ones.
	flat := Impairments{}.nullVarFactors(src, 10)
	for _, v := range flat {
		if v != 1 {
			t.Fatal("σ=0 should give unit factors")
		}
	}
}

func TestWithoutRxAntenna(t *testing.T) {
	src := rng.New(7)
	l := NewLink(src, 3, 4, 1)
	r := l.WithoutRxAntenna(1)
	if r.NRx() != 2 || r.NTx() != 4 {
		t.Fatalf("shape %dx%d", r.NRx(), r.NTx())
	}
	for k := range l.Subcarriers {
		for c := 0; c < 4; c++ {
			if r.Subcarriers[k].At(0, c) != l.Subcarriers[k].At(0, c) {
				t.Fatal("row 0 should be preserved")
			}
			if r.Subcarriers[k].At(1, c) != l.Subcarriers[k].At(2, c) {
				t.Fatal("row 2 should shift to row 1")
			}
		}
	}
	if len(r.Taps) != len(l.Taps) {
		t.Error("taps not carried over")
	}
}

func TestMultiDeploymentEvolveAndString(t *testing.T) {
	src := rng.New(9)
	dep, err := NewMultiDeployment(src.Split(1), Scenario4x2, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := dep.H[0][0].Subcarriers[0].Clone()
	dep.Evolve(src.Split(2), 0.1, 0.030)
	if before.Equal(dep.H[0][0].Subcarriers[0], 1e-12) {
		t.Error("Evolve did not move the channels")
	}
	d2 := NewDeployment(src.Split(3), Scenario1x1)
	if d2.String() == "" {
		t.Error("empty String()")
	}
	if got := BudgetForAntennasMW(0); got != TotalTxBudgetMW() {
		t.Errorf("zero antennas budget %g", got)
	}
	if got := BudgetForAntennasMW(4); math.Abs(got-4*TotalTxBudgetMW()) > 1e-12 {
		t.Errorf("4-antenna budget %g", got)
	}
}
