package ofdm

import (
	"math"
	"testing"
)

// sinrMatrix builds a [subcarrier][stream] matrix with uniform per-stream
// dB levels.
func sinrMatrix(streamsDB ...float64) [][]float64 {
	out := make([][]float64, NumSubcarriers)
	for k := range out {
		row := make([]float64, len(streamsDB))
		for s, db := range streamsDB {
			row[s] = math.Pow(10, db/10)
		}
		out[k] = row
	}
	return out
}

func TestJointBestRateFlatTwoStreams(t *testing.T) {
	r := JointBestRate(sinrMatrix(35, 35))
	if r.MCS.Index != 7 {
		t.Errorf("flat 35 dB: MCS %v", r.MCS)
	}
	// Two full streams: 130 Mb/s.
	if math.Abs(r.GoodputBps-130e6) > 1e6 {
		t.Errorf("goodput %.1f Mb/s, want ≈130", r.GoodputBps/1e6)
	}
	if r.Used != 2*NumSubcarriers {
		t.Errorf("used %d cells", r.Used)
	}
}

func TestJointWeakStreamDragsStrongOne(t *testing.T) {
	// Stream 0 at 35 dB, stream 1 at 8 dB: the shared decoder forces a
	// low MCS for everything — the 802.11 constraint COPA exploits.
	joint := JointBestRate(sinrMatrix(35, 8))
	strongAlone := BestRate(columnOf(sinrMatrix(35, 8), 0))
	if joint.MCS.Index >= 7 {
		t.Errorf("weak stream failed to drag the MCS down: %v", joint.MCS)
	}
	// The strong stream alone decodes at full rate.
	if strongAlone.MCS.Index != 7 {
		t.Errorf("strong stream alone should hit MCS7, got %v", strongAlone.MCS)
	}
	// Dropping the weak stream's cells recovers the strong stream.
	m := sinrMatrix(35, 8)
	for k := range m {
		m[k][1] = -1
	}
	recovered := JointBestRate(m)
	if recovered.MCS.Index != 7 {
		t.Errorf("dropping the weak stream should restore MCS7, got %v", recovered.MCS)
	}
	if recovered.GoodputBps <= joint.GoodputBps {
		t.Errorf("dropping should help here: %.1f vs %.1f Mb/s",
			recovered.GoodputBps/1e6, joint.GoodputBps/1e6)
	}
}

func columnOf(m [][]float64, s int) []float64 {
	out := make([]float64, len(m))
	for k := range m {
		out[k] = m[k][s]
	}
	return out
}

func TestJointAllDropped(t *testing.T) {
	m := sinrMatrix(10)
	for k := range m {
		m[k][0] = -1
	}
	r := JointBestRate(m)
	if r.GoodputBps != 0 || r.Used != 0 {
		t.Errorf("all-dropped: %+v", r)
	}
}

func TestJointMatchesSingleStream(t *testing.T) {
	// With one stream the joint model must agree with the per-stream one.
	col := make([]float64, NumSubcarriers)
	m := make([][]float64, NumSubcarriers)
	for k := range m {
		v := math.Pow(10, float64(12+(k*5)%18)/10)
		col[k] = v
		m[k] = []float64{v}
	}
	single := BestRate(col)
	joint := JointBestRate(m)
	if single.MCS != joint.MCS {
		t.Errorf("MCS mismatch: %v vs %v", single.MCS, joint.MCS)
	}
	if math.Abs(single.GoodputBps-joint.GoodputBps) > 1 {
		t.Errorf("goodput mismatch: %g vs %g", single.GoodputBps, joint.GoodputBps)
	}
}

func TestSensitivityTableMonotone(t *testing.T) {
	tbl := sensitivityTable()
	if len(tbl) != 8 {
		t.Fatalf("%d entries", len(tbl))
	}
	for i := 1; i < len(tbl); i++ {
		if tbl[i] <= tbl[i-1] {
			t.Errorf("MCS%d threshold %.1f ≤ MCS%d's %.1f", i, tbl[i], i-1, tbl[i-1])
		}
	}
	// Plausible absolute anchors: BPSK 1/2 decodes in single digits of
	// dB; 64-QAM 5/6 needs the mid-20s.
	if tbl[0] < 0 || tbl[0] > 8 {
		t.Errorf("MCS0 threshold %.1f dB implausible", tbl[0])
	}
	if tbl[7] < 20 || tbl[7] > 32 {
		t.Errorf("MCS7 threshold %.1f dB implausible", tbl[7])
	}
}

func TestSensitivityMatchesFER(t *testing.T) {
	m := Table()[4]
	thr := sensitivityDB(m, 0.1)
	atThr := math.Pow(10, thr/10)
	fer := FrameErrorRate(CodedBER(m.CodeRate, UncodedBER(m.Modulation, atThr)), MPDUBytes*8)
	if math.Abs(fer-0.1) > 0.02 {
		t.Errorf("FER at threshold = %.3f, want 0.1", fer)
	}
	above := math.Pow(10, (thr+2)/10)
	if f := FrameErrorRate(CodedBER(m.CodeRate, UncodedBER(m.Modulation, above)), MPDUBytes*8); f > 0.1 {
		t.Errorf("FER above threshold = %.3f, should improve", f)
	}
}

// sensitivityDB returns the minimum flat-channel SINR (dB) at which m
// delivers MPDUs with at most the target frame-error rate, by bisection
// over the analytic BER/FER model.
func sensitivityDB(m MCS, targetFER float64) float64 {
	fer := func(snrDB float64) float64 {
		raw := UncodedBER(m.Modulation, math.Pow(10, snrDB/10))
		return FrameErrorRate(CodedBER(m.CodeRate, raw), MPDUBytes*8)
	}
	lo, hi := -10.0, 60.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if fer(mid) > targetFER {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// sensitivityTable returns each MCS's 10%-FER threshold in dB, in MCS
// order.
func sensitivityTable() []float64 {
	out := make([]float64, 0, len(Table()))
	for _, m := range Table() {
		out = append(out, sensitivityDB(m, 0.1))
	}
	return out
}
