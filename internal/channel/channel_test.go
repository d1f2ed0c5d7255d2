package channel

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
	"time"

	"copa/internal/ofdm"
	"copa/internal/rng"
)

func TestUnits(t *testing.T) {
	if got := DBToLinear(0); got != 1 {
		t.Errorf("DBToLinear(0) = %g", got)
	}
	if got := DBToLinear(10); math.Abs(got-10) > 1e-12 {
		t.Errorf("DBToLinear(10) = %g", got)
	}
	if got := LinearToDB(100); math.Abs(got-20) > 1e-12 {
		t.Errorf("LinearToDB(100) = %g", got)
	}
	if !math.IsInf(LinearToDB(0), -1) {
		t.Error("LinearToDB(0) should be -Inf")
	}
	if got := DBmToMilliwatts(0); got != 1 {
		t.Errorf("DBmToMilliwatts(0) = %g", got)
	}
	if got := MilliwattsToDBm(DBmToMilliwatts(15)); math.Abs(got-15) > 1e-12 {
		t.Errorf("dBm round trip = %g", got)
	}
}

func TestWavelength(t *testing.T) {
	// ≈12.4 cm at 2.412 GHz — the paper's "one radio wavelength" 12.5 cm.
	if wl := Wavelength(); wl < 0.12 || wl > 0.13 {
		t.Errorf("wavelength = %g m", wl)
	}
}

func TestCoherenceTime(t *testing.T) {
	// Paper: 28 ms at 4 km/h and 112 ms at 1 km/h with m = 0.25.
	got4 := CoherenceTime(4000.0 / 3600)
	if math.Abs(got4-0.028) > 0.002 {
		t.Errorf("tc(4 km/h) = %g s, want ≈0.028", got4)
	}
	got1 := CoherenceTime(1000.0 / 3600)
	if math.Abs(got1-0.112) > 0.008 {
		t.Errorf("tc(1 km/h) = %g s, want ≈0.112", got1)
	}
	if !math.IsInf(CoherenceTime(0), 1) {
		t.Error("static environment should have infinite tc")
	}
}

func TestTapPowersNormalized(t *testing.T) {
	p := tapPowers()
	if len(p) != NumTaps {
		t.Fatalf("len = %d", len(p))
	}
	var sum float64
	for i, v := range p {
		if v <= 0 {
			t.Errorf("tap %d power %g", i, v)
		}
		if i > 0 && v >= p[i-1] {
			t.Errorf("PDP not decaying at tap %d", i)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("PDP sums to %g", sum)
	}
}

func TestNewLinkShapeAndGain(t *testing.T) {
	src := rng.New(42)
	const gainDB = -60.0
	// Average over many draws: mean per-entry power ≈ gain.
	var sum float64
	n := 0
	for trial := 0; trial < 40; trial++ {
		l := NewLink(src.Split(uint64(trial)), 2, 4, DBToLinear(gainDB))
		if len(l.Subcarriers) != ofdm.NumSubcarriers {
			t.Fatalf("subcarrier count = %d", len(l.Subcarriers))
		}
		if l.NRx() != 2 || l.NTx() != 4 {
			t.Fatalf("shape %dx%d", l.NRx(), l.NTx())
		}
		for _, h := range l.Subcarriers {
			for _, v := range h.Data {
				sum += real(v)*real(v) + imag(v)*imag(v)
				n++
			}
		}
	}
	meanDB := LinearToDB(sum / float64(n))
	if math.Abs(meanDB-gainDB) > 1.0 {
		t.Errorf("mean gain = %.2f dB, want %.1f±1", meanDB, gainDB)
	}
}

func TestLinkFrequencySelectivity(t *testing.T) {
	// Multipath must produce material per-subcarrier variation (Fig. 2
	// shows ≳15 dB swings). Check the spread of per-subcarrier gains.
	src := rng.New(7)
	l := NewLink(src, 1, 1, 1)
	min, max := math.Inf(1), math.Inf(-1)
	for k := 0; k < ofdm.NumSubcarriers; k++ {
		g := l.SubcarrierGainDB(k, 0, 0)
		min = math.Min(min, g)
		max = math.Max(max, g)
	}
	if max-min < 6 {
		t.Errorf("fading spread only %.1f dB; expected deep frequency selectivity", max-min)
	}
}

func TestLinkTranspose(t *testing.T) {
	src := rng.New(3)
	l := NewLink(src, 2, 3, 1)
	r := l.Transpose()
	if r.NRx() != 3 || r.NTx() != 2 {
		t.Fatalf("transpose shape %dx%d", r.NRx(), r.NTx())
	}
	for k := range l.Subcarriers {
		for i := 0; i < 2; i++ {
			for j := 0; j < 3; j++ {
				if l.Subcarriers[k].At(i, j) != r.Subcarriers[k].At(j, i) {
					t.Fatalf("transpose mismatch at k=%d", k)
				}
			}
		}
	}
}

func TestLinkScale(t *testing.T) {
	src := rng.New(5)
	l := NewLink(src, 2, 2, DBToLinear(-50))
	s := l.Scale(DBToLinear(-10))
	wantDB := l.AverageGainDB() - 10
	if got := s.AverageGainDB(); math.Abs(got-wantDB) > 1e-9 {
		t.Errorf("scaled gain = %.2f dB, want %.2f", got, wantDB)
	}
	// Original untouched.
	if math.Abs(l.MeanGainLinear-DBToLinear(-50)) > 1e-15 {
		t.Error("Scale mutated the original link")
	}
}

func TestLinkEvolveDecorrelates(t *testing.T) {
	src := rng.New(11)
	l := NewLink(src, 1, 1, 1)
	orig := l.Clone()

	// Short step: nearly unchanged.
	short := l.Clone()
	short.Evolve(src.Split(1), 0.001, 0.100)
	var diffShort, diffLong float64
	long := l.Clone()
	long.Evolve(src.Split(2), 1.0, 0.100) // ten coherence times

	for k := range orig.Subcarriers {
		ds := short.Subcarriers[k].Sub(orig.Subcarriers[k]).FrobeniusNorm()
		dl := long.Subcarriers[k].Sub(orig.Subcarriers[k]).FrobeniusNorm()
		diffShort += ds
		diffLong += dl
	}
	if diffShort >= diffLong {
		t.Errorf("evolution not progressive: short=%g long=%g", diffShort, diffLong)
	}
	// Power preserved on long evolution (fresh Rayleigh draw).
	if g := long.AverageGainDB(); math.Abs(g) > 4 {
		t.Errorf("evolved gain drifted to %.1f dB", g)
	}
	// Infinite coherence time: no change at all.
	still := l.Clone()
	still.Evolve(src.Split(3), 1.0, math.Inf(1))
	for k := range still.Subcarriers {
		if !still.Subcarriers[k].Equal(l.Subcarriers[k], 0) {
			t.Fatal("static channel changed")
		}
	}
}

func TestPathLoss(t *testing.T) {
	a := Point{0, 0}
	if pl := PathLossDB(a, Point{0.5, 0}); math.Abs(pl-referenceLossDB) > 1e-9 {
		t.Errorf("sub-metre distance should clamp to reference loss, got %g", pl)
	}
	pl10 := PathLossDB(a, Point{10, 0})
	pl20 := PathLossDB(a, Point{20, 0})
	if pl20 <= pl10 {
		t.Error("path loss not increasing with distance")
	}
	// Doubling distance adds ≈ 30·log10(2) ≈ 9 dB plus possibly one wall.
	delta := pl20 - pl10
	if delta < 9 || delta > 9+2*wallLossDB+1 {
		t.Errorf("10→20 m delta = %.1f dB", delta)
	}
}

func TestDeploymentEnvelope(t *testing.T) {
	// Fig. 9: signal −30…−70 dBm, interference mostly below signal.
	deps := GenerateTestbed(1, Scenario4x2, 60)
	below := 0
	for _, d := range deps {
		for j := 0; j < 2; j++ {
			if d.SignalDBm[j] < -70 || d.SignalDBm[j] > -30 {
				t.Errorf("signal %g dBm out of range", d.SignalDBm[j])
			}
			if d.InterferenceDBm[j] < d.SignalDBm[j] {
				below++
			}
		}
	}
	frac := float64(below) / float64(2*len(deps))
	if frac < 0.6 || frac > 0.98 {
		t.Errorf("interference below signal in %.0f%% of clients; want usually but not always", frac*100)
	}
}

func TestDeploymentDeterministic(t *testing.T) {
	a := GenerateTestbed(5, Scenario1x1, 3)
	b := GenerateTestbed(5, Scenario1x1, 3)
	for i := range a {
		if a[i].SignalDBm != b[i].SignalDBm || a[i].InterferenceDBm != b[i].InterferenceDBm {
			t.Fatal("same seed produced different testbeds")
		}
		for k := range a[i].H[0][0].Subcarriers {
			if !a[i].H[0][0].Subcarriers[k].Equal(b[i].H[0][0].Subcarriers[k], 0) {
				t.Fatal("same seed produced different channels")
			}
		}
	}
}

func TestDeploymentChannelMatchesDeclaredPower(t *testing.T) {
	deps := GenerateTestbed(2, Scenario4x2, 12)
	for _, d := range deps {
		for j := 0; j < 2; j++ {
			gotSig := d.H[j][j].AverageGainDB() + MaxTxPowerDBm
			if math.Abs(gotSig-d.SignalDBm[j]) > 6 {
				t.Errorf("client %d: channel gain implies %.1f dBm, declared %.1f",
					j, gotSig, d.SignalDBm[j])
			}
		}
	}
}

func TestScaleInterference(t *testing.T) {
	d := GenerateTestbed(3, Scenario4x2, 1)[0]
	w := d.ScaleInterference(-10)
	if math.Abs((d.InterferenceDBm[0]-10)-w.InterferenceDBm[0]) > 1e-9 {
		t.Error("interference power not scaled")
	}
	if math.Abs(w.H[0][1].AverageGainDB()-(d.H[0][1].AverageGainDB()-10)) > 1e-9 {
		t.Error("cross channel not scaled")
	}
	if !w.H[0][0].Subcarriers[0].Equal(d.H[0][0].Subcarriers[0], 0) {
		t.Error("signal channel must be unchanged")
	}
}

func TestEstimateCSIErrorScales(t *testing.T) {
	src := rng.New(21)
	l := NewLink(src, 2, 4, DBToLinear(-60))
	imp := Impairments{CSIErrorDB: -20, TxEVMDB: -35}
	est := imp.EstimateCSI(src.Split(1), l)
	var errPow, chanPow float64
	for k := range l.Subcarriers {
		errPow += math.Pow(est.Subcarriers[k].Sub(l.Subcarriers[k]).FrobeniusNorm(), 2)
		chanPow += math.Pow(l.Subcarriers[k].FrobeniusNorm(), 2)
	}
	gotDB := LinearToDB(errPow / chanPow)
	if math.Abs(gotDB-(-20)) > 2.5 {
		t.Errorf("CSI error = %.1f dB rel. channel, want ≈ -20", gotDB)
	}
	// Perfect hardware: estimate equals truth.
	perfect := PerfectHardware().EstimateCSI(src.Split(2), l)
	for k := range l.Subcarriers {
		if perfect.Subcarriers[k].Sub(l.Subcarriers[k]).MaxAbs() > 1e-12*l.Subcarriers[k].MaxAbs()+1e-30 {
			t.Fatal("perfect hardware should estimate exactly")
		}
	}
}

func TestBudgets(t *testing.T) {
	if got := TotalTxBudgetMW(); math.Abs(got-DBmToMilliwatts(15)) > 1e-12 {
		t.Errorf("total budget = %g", got)
	}
	if math.Abs(TxBudgetPerSubcarrierMW()*ofdm.NumSubcarriers-TotalTxBudgetMW()) > 1e-12 {
		t.Error("per-subcarrier budget inconsistent")
	}
	// Per-subcarrier SNR sanity: −60 dBm signal → ≈25 dB SNR at the
	// WARP-class noise floor.
	snr := LinearToDB(DBmToMilliwatts(-60) / ofdm.NumSubcarriers / NoisePerSubcarrierMW())
	if math.Abs(snr-25) > 0.5 {
		t.Errorf("per-subcarrier SNR at -60 dBm = %.1f dB", snr)
	}
}

func TestQuickPathLossMonotone(t *testing.T) {
	f := func(d1Raw, d2Raw uint16) bool {
		d1 := 1 + float64(d1Raw%300)/10
		d2 := 1 + float64(d2Raw%300)/10
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		a := Point{0, 0}
		return PathLossDB(a, Point{d1, 0}) <= PathLossDB(a, Point{d2, 0})+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkNewDeployment4x2(b *testing.B) {
	src := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewDeployment(src.Split(uint64(i)), Scenario4x2)
	}
}

// SubcarrierGainDB returns the power gain in dB of entry (rx, tx) on data
// subcarrier k.
func (l *Link) SubcarrierGainDB(k, rx, tx int) float64 {
	g := cmplx.Abs(l.Subcarriers[k].At(rx, tx))
	return LinearToDB(g * g)
}

// AverageGainDB returns the link's mean per-antenna-pair power gain in dB,
// averaged over subcarriers and antenna pairs.
func (l *Link) AverageGainDB() float64 {
	var sum float64
	n := 0
	for _, h := range l.Subcarriers {
		for _, v := range h.Data {
			sum += real(v)*real(v) + imag(v)*imag(v)
			n++
		}
	}
	return LinearToDB(sum / float64(n))
}

func TestAgeBucket(t *testing.T) {
	const coh = 10 * time.Millisecond
	for _, c := range []struct {
		age  time.Duration
		want int
	}{
		{-time.Millisecond, 0},
		{0, 0},
		{coh / 4, 1},
		{coh - 1, 3},
		{coh, 4},
		{5 * coh, 4},
		// buckets·age overflows int64 here; the bucket must saturate,
		// not wrap negative.
		{3e18, 4},
		{math.MaxInt64, 4},
	} {
		if got := AgeBucket(c.age, coh, 4); got != c.want {
			t.Errorf("AgeBucket(%v) = %d, want %d", c.age, got, c.want)
		}
	}
}
