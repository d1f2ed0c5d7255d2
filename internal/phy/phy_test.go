package phy

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"copa/internal/ofdm"
	"copa/internal/rng"
)

func TestScramblerInvolution(t *testing.T) {
	src := rng.New(1)
	bits := make([]byte, 256)
	for i := range bits {
		if src.Bool(0.5) {
			bits[i] = 1
		}
	}
	orig := append([]byte(nil), bits...)
	NewScrambler(0x2a).Apply(bits)
	changed := 0
	for i := range bits {
		if bits[i] != orig[i] {
			changed++
		}
	}
	if changed < 64 {
		t.Errorf("scrambler barely changed the data: %d/256", changed)
	}
	NewScrambler(0x2a).Apply(bits)
	for i := range bits {
		if bits[i] != orig[i] {
			t.Fatal("descrambling failed")
		}
	}
}

func TestScramblerPeriod(t *testing.T) {
	// A maximal-length 7-bit LFSR has period 127.
	s := NewScrambler(0x7f)
	var seq []byte
	for i := 0; i < 254; i++ {
		seq = append(seq, s.NextBit())
	}
	for i := 0; i < 127; i++ {
		if seq[i] != seq[i+127] {
			t.Fatal("sequence period is not 127")
		}
	}
	// Not a shorter period.
	same := true
	for i := 0; i < 63; i++ {
		if seq[i] != seq[i+63] {
			same = false
			break
		}
	}
	if same {
		t.Error("period shorter than 127")
	}
	if NewScrambler(0).state == 0 {
		t.Error("zero seed must be replaced")
	}
}

func TestConvEncodeKnown(t *testing.T) {
	// All-zero input → all-zero output.
	out := ConvEncode(make([]byte, 8))
	for _, b := range out {
		if b != 0 {
			t.Fatal("zero input should give zero output")
		}
	}
	// Single 1 then zeros: outputs trace the generator taps:
	// 133 octal = 1011011, 171 octal = 1111001 (MSB = current bit).
	impulse := make([]byte, 7)
	impulse[0] = 1
	out = ConvEncode(impulse)
	wantA := []byte{1, 0, 1, 1, 0, 1, 1}
	wantB := []byte{1, 1, 1, 1, 0, 0, 1}
	for i := 0; i < 7; i++ {
		if out[2*i] != wantA[i] || out[2*i+1] != wantB[i] {
			t.Fatalf("impulse response bit %d = (%d,%d), want (%d,%d)",
				i, out[2*i], out[2*i+1], wantA[i], wantB[i])
		}
	}
}

func TestPunctureRates(t *testing.T) {
	in := make([]byte, 120) // 60 input bits encoded
	cases := []struct {
		rate ofdm.CodeRate
		want int
	}{
		{ofdm.R12, 120}, {ofdm.R23, 90}, {ofdm.R34, 80}, {ofdm.R56, 72},
	}
	for _, c := range cases {
		out, err := Puncture(in, c.rate)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != c.want {
			t.Errorf("rate %v: %d bits, want %d", c.rate, len(out), c.want)
		}
		if CodedBits(60, c.rate) != c.want {
			t.Errorf("CodedBits(%v) = %d, want %d", c.rate, CodedBits(60, c.rate), c.want)
		}
	}
}

func TestDepunctureRoundTrip(t *testing.T) {
	for _, rate := range []ofdm.CodeRate{ofdm.R12, ofdm.R23, ofdm.R34, ofdm.R56} {
		bits := make([]byte, 30)
		for i := range bits {
			bits[i] = byte(i % 2)
		}
		coded := ConvEncode(bits)
		punct, err := Puncture(coded, rate)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Depuncture(HardToLLR(punct), rate, len(bits))
		if err != nil {
			t.Fatal(err)
		}
		if len(full) != len(coded) {
			t.Fatalf("rate %v: depunctured length %d, want %d", rate, len(full), len(coded))
		}
		// Every surviving position must agree in sign with the coded bit;
		// punctured positions are exactly zero.
		for i, l := range full {
			switch {
			case l == 0: // punctured
			case l > 0 && coded[i] != 0:
				t.Fatalf("rate %v: positive LLR for 1-bit at %d", rate, i)
			case l < 0 && coded[i] != 1:
				t.Fatalf("rate %v: negative LLR for 0-bit at %d", rate, i)
			}
		}
	}
}

func TestViterbiNoiselessAllRates(t *testing.T) {
	src := rng.New(3)
	for _, rate := range []ofdm.CodeRate{ofdm.R12, ofdm.R23, ofdm.R34, ofdm.R56} {
		bits := make([]byte, 200)
		for i := range bits {
			if src.Bool(0.5) {
				bits[i] = 1
			}
		}
		withTail := append(append([]byte(nil), bits...), make([]byte, constraintLen-1)...)
		coded := ConvEncode(withTail)
		punct, err := Puncture(coded, rate)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Depuncture(HardToLLR(punct), rate, len(withTail))
		if err != nil {
			t.Fatal(err)
		}
		got := ViterbiDecode(full, true)
		for i := range bits {
			if got[i] != bits[i] {
				t.Fatalf("rate %v: noiseless decode error at bit %d", rate, i)
			}
		}
	}
}

func TestViterbiCorrectsErrors(t *testing.T) {
	src := rng.New(4)
	bits := make([]byte, 100)
	for i := range bits {
		if src.Bool(0.5) {
			bits[i] = 1
		}
	}
	withTail := append(append([]byte(nil), bits...), make([]byte, constraintLen-1)...)
	coded := ConvEncode(withTail)
	// Flip 5 well-separated coded bits: far fewer than d_free/2 per
	// constraint span, so the decoder must fix all of them.
	for _, pos := range []int{10, 50, 90, 130, 170} {
		coded[pos] ^= 1
	}
	got := ViterbiDecode(HardToLLR(coded), true)
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("decode error at bit %d despite correctable channel", i)
		}
	}
}

func TestInterleaverBijective(t *testing.T) {
	for _, m := range []ofdm.Modulation{ofdm.BPSK, ofdm.QPSK, ofdm.QAM16, ofdm.QAM64} {
		perm := InterleaverPermutation(m)
		seen := make([]bool, len(perm))
		for _, p := range perm {
			if p < 0 || p >= len(perm) || seen[p] {
				t.Fatalf("%v: permutation not bijective", m)
			}
			seen[p] = true
		}
		// Round trip through soft path.
		bits := make([]byte, len(perm))
		for i := range bits {
			bits[i] = byte(i % 2)
		}
		inter := Interleave(m, bits)
		llr := make([]float64, len(inter))
		for i, b := range inter {
			if b == 0 {
				llr[i] = 1
			} else {
				llr[i] = -1
			}
		}
		back := DeinterleaveLLR(m, llr)
		for i := range bits {
			want := 1.0
			if bits[i] == 1 {
				want = -1
			}
			if back[i] != want {
				t.Fatalf("%v: deinterleave mismatch at %d", m, i)
			}
		}
	}
}

func TestInterleaverSpreadsAdjacentBits(t *testing.T) {
	// Adjacent coded bits must land on different subcarriers.
	for _, m := range []ofdm.Modulation{ofdm.QPSK, ofdm.QAM64} {
		perm := InterleaverPermutation(m)
		nbpsc := m.BitsPerSymbol()
		for k := 0; k+1 < len(perm); k++ {
			if perm[k]/nbpsc == perm[k+1]/nbpsc {
				t.Fatalf("%v: bits %d,%d share subcarrier %d", m, k, k+1, perm[k]/nbpsc)
			}
		}
	}
}

func TestQAMUnitEnergyAndGray(t *testing.T) {
	for _, m := range []ofdm.Modulation{ofdm.BPSK, ofdm.QPSK, ofdm.QAM16, ofdm.QAM64} {
		bits := m.BitsPerSymbol()
		n := 1 << bits
		var energy float64
		points := make(map[int]complex128)
		for v := 0; v < n; v++ {
			bs := make([]byte, bits)
			for i := 0; i < bits; i++ {
				bs[i] = byte((v >> (bits - 1 - i)) & 1)
			}
			sym := Map(m, bs)[0]
			points[v] = sym
			energy += real(sym)*real(sym) + imag(sym)*imag(sym)
		}
		energy /= float64(n)
		if math.Abs(energy-1) > 1e-9 {
			t.Errorf("%v: mean energy %g, want 1", m, energy)
		}
		// Gray property: nearest neighbours differ in exactly one bit.
		for a, pa := range points {
			for b, pb := range points {
				if a >= b {
					continue
				}
				d := cmplx.Abs(pa - pb)
				hamming := popcount(a ^ b)
				// Minimum distance pairs must be 1-bit apart.
				if d < minDist(m)*1.0001 && hamming != 1 {
					t.Errorf("%v: neighbours %x,%x differ in %d bits", m, a, b, hamming)
				}
			}
		}
	}
}

func minDist(m ofdm.Modulation) float64 {
	switch m {
	case ofdm.BPSK:
		return 2
	case ofdm.QPSK:
		return 2 / math.Sqrt2
	case ofdm.QAM16:
		return 2 / math.Sqrt(10)
	case ofdm.QAM64:
		return 2 / math.Sqrt(42)
	}
	return 0
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestDemapNoiselessSigns(t *testing.T) {
	src := rng.New(5)
	for _, m := range []ofdm.Modulation{ofdm.BPSK, ofdm.QPSK, ofdm.QAM16, ofdm.QAM64} {
		bits := make([]byte, m.BitsPerSymbol()*32)
		for i := range bits {
			if src.Bool(0.5) {
				bits[i] = 1
			}
		}
		syms := Map(m, bits)
		llrs := DemapLLR(m, syms, 0.001)
		for i, l := range llrs {
			if (l > 0) != (bits[i] == 0) || l == 0 {
				t.Fatalf("%v: LLR sign wrong at %d (llr=%g bit=%d)", m, i, l, bits[i])
			}
		}
	}
}

func TestQuickMapDemapRoundTrip(t *testing.T) {
	f := func(seed int64, modRaw uint8) bool {
		m := []ofdm.Modulation{ofdm.BPSK, ofdm.QPSK, ofdm.QAM16, ofdm.QAM64}[modRaw%4]
		src := rng.New(seed)
		bits := make([]byte, m.BitsPerSymbol()*16)
		for i := range bits {
			if src.Bool(0.5) {
				bits[i] = 1
			}
		}
		llrs := DemapLLR(m, Map(m, bits), 0.01)
		for i, l := range llrs {
			if (l > 0) != (bits[i] == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSimulateLinkHighSNRErrorFree(t *testing.T) {
	src := rng.New(6)
	for _, mcs := range []ofdm.MCS{ofdm.Table()[0], ofdm.Table()[4], ofdm.Table()[7]} {
		res, err := SimulateLink(src.Split(uint64(mcs.Index)), mcs, math.Pow(10, 35.0/10), 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.BitErrors != 0 {
			t.Errorf("%v at 35 dB: %d/%d bit errors", mcs, res.BitErrors, res.BitsSent)
		}
	}
}

func TestSimulateLinkLowSNRFails(t *testing.T) {
	src := rng.New(7)
	mcs := ofdm.Table()[7] // 64-QAM 5/6
	res, err := SimulateLink(src, mcs, math.Pow(10, 5.0/10), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors == 0 {
		t.Error("MCS7 at 5 dB should be undecodable")
	}
}

func TestSimulateLinkRawBERMatchesAnalytic(t *testing.T) {
	// The measured pre-decoder BER must track ofdm.UncodedBER within
	// statistical tolerance — this validates the analytic model the
	// whole testbed's throughput predictions rest on.
	src := rng.New(8)
	cases := []struct {
		mcs    ofdm.MCS
		snrDB  float64
		tolLog float64
	}{
		{ofdm.Table()[1], 4, 0.25},  // QPSK 1/2
		{ofdm.Table()[4], 12, 0.25}, // 16-QAM 3/4
		{ofdm.Table()[7], 18, 0.3},  // 64-QAM 5/6
	}
	for _, c := range cases {
		sinr := math.Pow(10, c.snrDB/10)
		res, err := SimulateLink(src.Split(uint64(c.mcs.Index)), c.mcs, sinr, 120)
		if err != nil {
			t.Fatal(err)
		}
		want := ofdm.UncodedBER(c.mcs.Modulation, sinr)
		got := res.RawBER()
		if got == 0 {
			t.Fatalf("%v @%g dB: no raw errors measured", c.mcs, c.snrDB)
		}
		if d := math.Abs(math.Log10(got) - math.Log10(want)); d > c.tolLog {
			t.Errorf("%v @%g dB: raw BER %.3g vs analytic %.3g (Δlog=%.2f)",
				c.mcs, c.snrDB, got, want, d)
		}
	}
}

func TestSimulateLinkCodingGain(t *testing.T) {
	// At a moderate SNR the decoder must deliver far fewer errors than
	// the raw channel.
	src := rng.New(9)
	mcs := ofdm.Table()[1] // QPSK 1/2
	res, err := SimulateLink(src, mcs, math.Pow(10, 6.0/10), 120)
	if err != nil {
		t.Fatal(err)
	}
	if res.RawBER() < 1e-3 {
		t.Skip("channel too clean for this check")
	}
	if res.BER() > res.RawBER()/10 {
		t.Errorf("coding gain too small: post %.3g vs raw %.3g", res.BER(), res.RawBER())
	}
}

func BenchmarkViterbi(b *testing.B) {
	src := rng.New(10)
	bits := make([]byte, 1000)
	for i := range bits {
		if src.Bool(0.5) {
			bits[i] = 1
		}
	}
	coded := ConvEncode(bits)
	llrs := HardToLLR(coded)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ViterbiDecode(llrs, false)
	}
}

func BenchmarkSimulateLinkMCS7(b *testing.B) {
	src := rng.New(11)
	mcs := ofdm.Table()[7]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateLink(src, mcs, 1000, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// HardToLLR converts hard bits to saturated LLRs (for exercising the
// decoder with hard-decision inputs).
func HardToLLR(bits []byte) []float64 {
	out := make([]float64, len(bits))
	for i, b := range bits {
		if b == 0 {
			out[i] = 4
		} else {
			out[i] = -4
		}
	}
	return out
}
