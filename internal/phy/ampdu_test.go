package phy

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"testing/quick"

	"copa/internal/rng"
)

func randMPDUs(src *rng.Source, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		m := make([]byte, size)
		for j := range m {
			m[j] = byte(src.Intn(256))
		}
		out[i] = m
	}
	return out
}

func TestAMPDURoundTrip(t *testing.T) {
	src := rng.New(1)
	mpdus := randMPDUs(src, 5, 1500)
	agg, err := Aggregate(mpdus)
	if err != nil {
		t.Fatal(err)
	}
	got := Deaggregate(agg)
	if len(got) != 5 {
		t.Fatalf("recovered %d MPDUs", len(got))
	}
	for i, r := range got {
		if !r.OK || !bytes.Equal(r.Payload, mpdus[i]) {
			t.Fatalf("MPDU %d mismatch (ok=%v)", i, r.OK)
		}
	}
}

func TestAMPDUCorruptedBodyLosesOnlyItself(t *testing.T) {
	src := rng.New(2)
	mpdus := randMPDUs(src, 4, 600)
	agg, err := Aggregate(mpdus)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second MPDU's body.
	per := len(agg) / 4
	agg[per+delimiterBytes+10] ^= 0xff
	got := Deaggregate(agg)
	if len(got) != 4 {
		t.Fatalf("recovered %d slots", len(got))
	}
	okCount := 0
	for _, r := range got {
		if r.OK {
			okCount++
		}
	}
	if okCount != 3 {
		t.Errorf("%d MPDUs survived, want 3", okCount)
	}
}

func TestAMPDUCorruptedDelimiterResyncs(t *testing.T) {
	src := rng.New(3)
	mpdus := randMPDUs(src, 3, 256)
	agg, err := Aggregate(mpdus)
	if err != nil {
		t.Fatal(err)
	}
	// Destroy the first delimiter entirely.
	agg[0] ^= 0xff
	agg[3] ^= 0xff
	got := Deaggregate(agg)
	recovered := 0
	for _, r := range got {
		if r.OK {
			recovered++
		}
	}
	// The later MPDUs must be recoverable via resync.
	if recovered < 2 {
		t.Errorf("only %d MPDUs recovered after delimiter corruption", recovered)
	}
}

func TestAMPDUValidation(t *testing.T) {
	if _, err := Aggregate([][]byte{{}}); err == nil {
		t.Error("empty MPDU accepted")
	}
	big := make([]byte, maxMPDUBytes)
	if _, err := Aggregate([][]byte{big}); err == nil {
		t.Error("oversized MPDU accepted")
	}
	if got := Deaggregate(nil); len(got) != 0 {
		t.Error("nil stream produced MPDUs")
	}
	if got := Deaggregate([]byte{1, 2, 3}); len(got) != 0 {
		t.Error("short garbage produced MPDUs")
	}
}

func TestAggregateOverhead(t *testing.T) {
	// 1500-byte MPDU: 4 delimiter + 4 FCS + padding to multiple of 4.
	oh := AggregateOverhead(1500)
	if oh < 8 || oh > 11 {
		t.Errorf("overhead %d bytes", oh)
	}
	src := rng.New(4)
	mpdus := randMPDUs(src, 1, 1500)
	agg, _ := Aggregate(mpdus)
	if len(agg) != 1500+AggregateOverhead(1500) {
		t.Errorf("actual framing %d vs computed %d", len(agg)-1500, AggregateOverhead(1500))
	}
}

func TestQuickAMPDUNeverPanicsOnGarbage(t *testing.T) {
	f := func(data []byte) bool {
		for _, r := range Deaggregate(data) {
			if r.OK && r.Payload == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// AggregateOverhead returns the framing bytes added per MPDU of the given
// size (delimiter + FCS + padding), used by throughput accounting.
func AggregateOverhead(mpduBytes int) int {
	raw := delimiterBytes + mpduBytes + fcsBytes
	pad := (4 - raw%4) % 4
	return delimiterBytes + fcsBytes + pad
}

// Deaggregate walks an (possibly corrupted) A-MPDU stream and recovers
// what it can: on a bad delimiter it slides forward one 4-byte step
// looking for the next valid signature — the standard's resynchronization
// behaviour — so one corrupted MPDU costs only itself.
func Deaggregate(data []byte) []DeaggregateResult {
	var out []DeaggregateResult
	pos := 0
	for pos+delimiterBytes <= len(data) {
		length := binary.LittleEndian.Uint16(data[pos : pos+2])
		crcOK := data[pos+2] == delimiterCRC(length)
		sigOK := data[pos+3] == delimiterSignature
		if !crcOK || !sigOK || length < fcsBytes || pos+delimiterBytes+int(length) > len(data) {
			// Resync scan: advance one alignment step.
			pos += 4
			continue
		}
		body := data[pos+delimiterBytes : pos+delimiterBytes+int(length)-fcsBytes]
		fcs := binary.LittleEndian.Uint32(data[pos+delimiterBytes+int(length)-fcsBytes : pos+delimiterBytes+int(length)])
		if crc32.ChecksumIEEE(body) == fcs {
			cp := append([]byte(nil), body...)
			out = append(out, DeaggregateResult{Payload: cp, OK: true})
		} else {
			out = append(out, DeaggregateResult{OK: false})
		}
		pos += delimiterBytes + int(length)
		for pos%4 != 0 {
			pos++
		}
	}
	return out
}

// DeaggregateResult reports one recovered MPDU slot.
type DeaggregateResult struct {
	// Payload is the MPDU body; nil if the FCS failed.
	Payload []byte
	// OK is true when both delimiter and FCS validated.
	OK bool
}
