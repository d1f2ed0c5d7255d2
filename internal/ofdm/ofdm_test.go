package ofdm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMCSDataRates(t *testing.T) {
	// The canonical 802.11n 20 MHz, 800 ns GI single-stream rates.
	want := []float64{6.5e6, 13e6, 19.5e6, 26e6, 39e6, 52e6, 58.5e6, 65e6}
	table := Table()
	if len(table) != 8 {
		t.Fatalf("MCS table has %d entries, want 8", len(table))
	}
	for i, m := range table {
		if got := m.DataRateBps(); math.Abs(got-want[i]) > 1 {
			t.Errorf("%v rate = %.1f Mb/s, want %.1f", m, got/1e6, want[i]/1e6)
		}
		if m.Index != i {
			t.Errorf("MCS index %d at position %d", m.Index, i)
		}
	}
}

func TestModulationBits(t *testing.T) {
	cases := []struct {
		m    Modulation
		bits int
		pts  int
	}{{BPSK, 1, 2}, {QPSK, 2, 4}, {QAM16, 4, 16}, {QAM64, 6, 64}}
	for _, c := range cases {
		if c.m.BitsPerSymbol() != c.bits || c.m.Points() != c.pts {
			t.Errorf("%v: bits=%d pts=%d", c.m, c.m.BitsPerSymbol(), c.m.Points())
		}
	}
}

func TestQFunc(t *testing.T) {
	if got := QFunc(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Q(0) = %g", got)
	}
	// Q(1.96) ≈ 0.025 (two-sided 95%).
	if got := QFunc(1.96); math.Abs(got-0.025) > 1e-3 {
		t.Errorf("Q(1.96) = %g", got)
	}
	if QFunc(10) > 1e-20 {
		t.Error("Q(10) should be negligible")
	}
}

func TestUncodedBERMonotoneInSINR(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		prev := 1.0
		for snrDB := -10.0; snrDB <= 40; snrDB += 1 {
			ber := UncodedBER(m, math.Pow(10, snrDB/10))
			if ber > prev+1e-15 {
				t.Errorf("%v: BER not monotone at %g dB", m, snrDB)
			}
			if ber < 0 || ber > 0.5 {
				t.Errorf("%v: BER out of range: %g", m, ber)
			}
			prev = ber
		}
	}
}

func TestUncodedBEROrderingAcrossModulations(t *testing.T) {
	// At any fixed SINR, denser constellations have equal or worse BER.
	// (Checked from 10 dB up: below that the nearest-neighbour QAM
	// approximation's prefactors cross over, and all constellations are
	// unusable anyway.)
	for snrDB := 10.0; snrDB <= 35; snrDB += 5 {
		s := math.Pow(10, snrDB/10)
		b := UncodedBER(BPSK, s)
		q := UncodedBER(QPSK, s)
		q16 := UncodedBER(QAM16, s)
		q64 := UncodedBER(QAM64, s)
		if b > q+1e-12 || q > q16+1e-12 || q16 > q64+1e-12 {
			t.Errorf("BER ordering violated at %g dB: %g %g %g %g", snrDB, b, q, q16, q64)
		}
	}
}

func TestUncodedBERKnownPoints(t *testing.T) {
	// BPSK at 9.6 dB SNR is the textbook 1e-5 point.
	ber := UncodedBER(BPSK, math.Pow(10, 0.96))
	if ber < 1e-6 || ber > 1e-4 {
		t.Errorf("BPSK@9.6dB BER = %g, want ≈1e-5", ber)
	}
	if got := UncodedBER(QAM64, 0); got != 0.5 {
		t.Errorf("BER at 0 SINR = %g, want 0.5", got)
	}
	if got := UncodedBER(QAM64, -1); got != 0.5 {
		t.Errorf("BER at negative SINR = %g, want 0.5", got)
	}
}

func TestCodedBERProperties(t *testing.T) {
	for _, r := range []CodeRate{R12, R23, R34, R56} {
		if got := CodedBER(r, 0); got != 0 {
			t.Errorf("%v: CodedBER(0) = %g", r, got)
		}
		prev := 0.0
		for p := 1e-6; p <= 0.4; p *= 2 {
			c := CodedBER(r, p)
			if c < prev-1e-15 {
				t.Errorf("%v: coded BER not monotone at p=%g", r, p)
			}
			if c < 0 || c > 0.5 {
				t.Errorf("%v: coded BER out of range: %g", r, c)
			}
			prev = c
		}
		// Coding must help at low raw BER.
		if c := CodedBER(r, 1e-4); c >= 1e-4 {
			t.Errorf("%v: coding does not help at p=1e-4: %g", r, c)
		}
	}
}

func TestCodedBERStrongerCodesWin(t *testing.T) {
	// At moderate raw BER, lower code rates decode better.
	for _, p := range []float64{1e-3, 1e-2} {
		c12 := CodedBER(R12, p)
		c34 := CodedBER(R34, p)
		c56 := CodedBER(R56, p)
		if !(c12 <= c34 && c34 <= c56) {
			t.Errorf("p=%g: rate ordering violated: 1/2=%g 3/4=%g 5/6=%g", p, c12, c34, c56)
		}
	}
}

func TestFrameErrorRate(t *testing.T) {
	if FrameErrorRate(0, 12000) != 0 {
		t.Error("FER(0) != 0")
	}
	if FrameErrorRate(0.5, 12000) != 1 {
		t.Error("FER(0.5) != 1")
	}
	// Small-p approximation: FER ≈ bits × p.
	fer := FrameErrorRate(1e-9, 12000)
	if math.Abs(fer-12000e-9)/12000e-9 > 0.01 {
		t.Errorf("FER small-p = %g, want ≈ %g", fer, 12000e-9)
	}
	if f := FrameErrorRate(1e-3, 12000); f < 0.99 {
		t.Errorf("FER at p=1e-3 over 12kb = %g, want ≈1", f)
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{{5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120}, {19, 10, 92378}, {4, 5, 0}, {4, -1, 0}}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("C(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}

func TestPairwiseErrorProb(t *testing.T) {
	if pairwiseErrorProb(10, 0) != 0 {
		t.Error("P2(d, 0) != 0")
	}
	if pairwiseErrorProb(10, 0.5) != 0.5 {
		t.Error("P2(d, 0.5) != 0.5")
	}
	// d=1: error iff the single differing bit flips.
	if got := pairwiseErrorProb(1, 0.1); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("P2(1, 0.1) = %g, want 0.1", got)
	}
	// d=2: ½C(2,1)p·q + p² = pq + p².
	p := 0.1
	want := p*(1-p) + p*p
	if got := pairwiseErrorProb(2, p); math.Abs(got-want) > 1e-12 {
		t.Errorf("P2(2, 0.1) = %g, want %g", got, want)
	}
}

func TestThroughputForMCSAllGoodSubcarriers(t *testing.T) {
	sinrs := make([]float64, NumSubcarriers)
	for i := range sinrs {
		sinrs[i] = math.Pow(10, 35.0/10) // 35 dB: 64-QAM 5/6 territory
	}
	best := BestRate(sinrs)
	if best.MCS.Index != 7 {
		t.Errorf("35 dB flat channel: best MCS = %v, want MCS7", best.MCS)
	}
	if math.Abs(best.GoodputBps-65e6) > 0.5e6 {
		t.Errorf("goodput = %.1f Mb/s, want ≈65", best.GoodputBps/1e6)
	}
}

func TestThroughputWeakSubcarriersSinkFrame(t *testing.T) {
	// 48 strong subcarriers + 4 at 0 dB: the single decoder forces a
	// lower rate. Dropping the weak ones should recover throughput.
	sinrs := make([]float64, NumSubcarriers)
	for i := range sinrs {
		sinrs[i] = math.Pow(10, 35.0/10)
	}
	for i := 0; i < 4; i++ {
		sinrs[i] = 1 // 0 dB
	}
	with := BestRate(sinrs)

	dropped := append([]float64(nil), sinrs...)
	for i := 0; i < 4; i++ {
		dropped[i] = -1
	}
	without := BestRate(dropped)
	if without.GoodputBps <= with.GoodputBps {
		t.Errorf("dropping bad subcarriers should help: with=%.1f without=%.1f Mb/s",
			with.GoodputBps/1e6, without.GoodputBps/1e6)
	}
	if without.MCS.Index <= with.MCS.Index {
		t.Errorf("dropping should enable a higher MCS: %v vs %v", with.MCS, without.MCS)
	}
}

func TestThroughputAllDropped(t *testing.T) {
	sinrs := []float64{-1, -1, -1}
	r := BestRate(sinrs)
	if r.GoodputBps != 0 {
		t.Errorf("all-dropped goodput = %g", r.GoodputBps)
	}
}

func TestMultiDecoderBeatsSingleOnVariableChannel(t *testing.T) {
	// Highly variable SINR: per-subcarrier rate adaptation must win.
	sinrs := make([]float64, NumSubcarriers)
	for i := range sinrs {
		if i%2 == 0 {
			sinrs[i] = math.Pow(10, 35.0/10)
		} else {
			sinrs[i] = math.Pow(10, 5.0/10)
		}
	}
	single := BestRate(sinrs).GoodputBps
	multi := MultiDecoderThroughputBps(sinrs)
	if multi <= single {
		t.Errorf("multi-decoder %.1f <= single %.1f Mb/s", multi/1e6, single/1e6)
	}
}

func TestMultiDecoderEqualsSingleOnFlatChannel(t *testing.T) {
	sinrs := make([]float64, NumSubcarriers)
	for i := range sinrs {
		sinrs[i] = math.Pow(10, 35.0/10)
	}
	single := BestRate(sinrs).GoodputBps
	multi := MultiDecoderThroughputBps(sinrs)
	if math.Abs(multi-single)/single > 0.02 {
		t.Errorf("flat channel: multi %.2f vs single %.2f Mb/s", multi/1e6, single/1e6)
	}
}

// Property: goodput is monotone under improving any one subcarrier.
func TestQuickGoodputMonotone(t *testing.T) {
	f := func(seedRaw uint32, idxRaw uint8) bool {
		sinrs := make([]float64, NumSubcarriers)
		seed := float64(seedRaw%1000) / 999
		for i := range sinrs {
			sinrs[i] = math.Pow(10, (5+25*seed+float64(i%7))/10)
		}
		idx := int(idxRaw) % NumSubcarriers
		before := BestRate(sinrs).GoodputBps
		sinrs[idx] *= 4
		after := BestRate(sinrs).GoodputBps
		return after >= before-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBestRate(b *testing.B) {
	sinrs := make([]float64, NumSubcarriers)
	for i := range sinrs {
		sinrs[i] = math.Pow(10, float64(10+i%20)/10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BestRate(sinrs)
	}
}
