package csi

import (
	"math"
	"testing"
	"testing/quick"

	"copa/internal/channel"
	"copa/internal/linalg"
	"copa/internal/precoding"
	"copa/internal/rng"
)

func testLink(seed int64, nRx, nTx int) *channel.Link {
	return channel.NewLink(rng.New(seed), nRx, nTx, channel.DBToLinear(-60))
}

func TestRoundTripStructure(t *testing.T) {
	l := testLink(1, 2, 4)
	data, err := EncodeLink(l)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeLink(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.NRx() != 2 || rec.NTx() != 4 || len(rec.Subcarriers) != len(l.Subcarriers) {
		t.Fatalf("shape mismatch: %dx%d, %d subcarriers", rec.NRx(), rec.NTx(), len(rec.Subcarriers))
	}
}

func TestRoundTripFidelity(t *testing.T) {
	// The codec must reconstruct channels well enough to precode from:
	// relative error below −15 dB across a variety of links.
	for seed := int64(0); seed < 10; seed++ {
		l := testLink(seed, 2, 4)
		data, err := EncodeLink(l)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := DecodeLink(data)
		if err != nil {
			t.Fatal(err)
		}
		errDB := ReconstructionErrorDB(l.Subcarriers, rec.Subcarriers)
		if errDB > -15 {
			t.Errorf("seed %d: reconstruction error %.1f dB, want ≤ −15", seed, errDB)
		}
	}
}

func TestCompressionRatio(t *testing.T) {
	// Must beat the paper's reported 2× on testbed-like channels.
	var totalRaw, totalComp int
	for seed := int64(0); seed < 10; seed++ {
		l := testLink(100+seed, 2, 4)
		data, err := EncodeLink(l)
		if err != nil {
			t.Fatal(err)
		}
		totalRaw += RawSize(2, 4, len(l.Subcarriers))
		totalComp += len(data)
	}
	ratio := Ratio(totalRaw, totalComp)
	if ratio < 2 {
		t.Errorf("compression ratio %.2f, want ≥ 2", ratio)
	}
	t.Logf("mean compression ratio: %.2f", ratio)
}

func TestPrecoderRoundTrip(t *testing.T) {
	l := testLink(7, 2, 4)
	p, err := precoding.Beamforming(l, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodePrecoder(p.PerSubcarrier)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeMatrices(data)
	if err != nil {
		t.Fatal(err)
	}
	errDB := ReconstructionErrorDB(p.PerSubcarrier, rec)
	if errDB > -12 {
		t.Errorf("precoder reconstruction error %.1f dB", errDB)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeMatrices(nil); err == nil {
		t.Error("nil payload should fail")
	}
	if _, err := DecodeMatrices([]byte{1, 2, 3}); err == nil {
		t.Error("garbage should fail")
	}
	// Truncated valid payload.
	l := testLink(9, 1, 1)
	data, err := EncodeLink(l)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMatrices(data[:len(data)/3]); err == nil {
		t.Error("truncated payload should fail")
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := EncodeMatrices(nil); err == nil {
		t.Error("empty series should fail")
	}
	ragged := []*linalg.Matrix{linalg.NewMatrix(2, 2), linalg.NewMatrix(3, 2)}
	if _, err := EncodeMatrices(ragged); err == nil {
		t.Error("ragged series should fail")
	}
}

func TestZeroChannel(t *testing.T) {
	ms := []*linalg.Matrix{linalg.NewMatrix(2, 2), linalg.NewMatrix(2, 2)}
	data, err := EncodeMatrices(ms)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeMatrices(data)
	if err != nil {
		t.Fatal(err)
	}
	for k := range rec {
		if rec[k].MaxAbs() > 1e-6 {
			t.Errorf("zero channel reconstructed nonzero: %g", rec[k].MaxAbs())
		}
	}
}

func TestQuantizerPhaseWrap(t *testing.T) {
	q := newPhaseQuantizer(3.0, 7)
	// Target just past −π: the wrapped delta is small and positive.
	code := q.encode(-3.1)
	if code < 0 {
		t.Errorf("wrap-aware delta should be positive, code=%d", code)
	}
	if q.value < -math.Pi || q.value > math.Pi {
		t.Errorf("quantizer value %g outside [-π, π]", q.value)
	}
}

func TestQuickRoundTripNeverCorrupts(t *testing.T) {
	f := func(seed int64, rxRaw, txRaw uint8) bool {
		nRx := 1 + int(rxRaw%4)
		nTx := 1 + int(txRaw%4)
		l := channel.NewLink(rng.New(seed), nRx, nTx, channel.DBToLinear(-55))
		data, err := EncodeLink(l)
		if err != nil {
			return false
		}
		rec, err := DecodeLink(data)
		if err != nil {
			return false
		}
		return rec.NRx() == nRx && rec.NTx() == nTx &&
			ReconstructionErrorDB(l.Subcarriers, rec.Subcarriers) < -10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNullingFromCompressedCSIStillWorks(t *testing.T) {
	// End-to-end: a follower's CSI travels compressed inside an ITS
	// frame; nulling computed from the decompressed CSI must still
	// suppress interference substantially.
	src := rng.New(33)
	own := channel.NewLink(src.Split(1), 2, 4, channel.DBToLinear(-55))
	cross := channel.NewLink(src.Split(2), 2, 4, channel.DBToLinear(-58))

	data, err := EncodeLink(cross)
	if err != nil {
		t.Fatal(err)
	}
	crossRec, err := DecodeLink(data)
	if err != nil {
		t.Fatal(err)
	}
	p, err := precoding.Nulling(own, crossRec, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Interference power leaking through the true cross channel, summed
	// over victim antennas and averaged over subcarriers.
	var mean float64
	for k, h := range cross.Subcarriers {
		var pow float64
		for _, v := range h.Mul(p.Scaled(k, []float64{1, 1})).Data {
			pow += real(v)*real(v) + imag(v)*imag(v)
		}
		mean += pow
	}
	mean /= float64(len(cross.Subcarriers))
	unnulled := channel.DBToLinear(-58) * 4
	redDB := channel.LinearToDB(mean / unnulled)
	if redDB > -10 {
		t.Errorf("nulling from compressed CSI only reduces %.1f dB", redDB)
	}
}

func BenchmarkEncodeLink4x2(b *testing.B) {
	l := testLink(50, 2, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeLink(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeLink4x2(b *testing.B) {
	l := testLink(51, 2, 4)
	data, err := EncodeLink(l)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeLink(data); err != nil {
			b.Fatal(err)
		}
	}
}
