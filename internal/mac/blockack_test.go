package mac

import (
	"math"
	"testing"

	"copa/internal/rng"
)

func TestBlockAckBitmap(t *testing.T) {
	ok := []bool{true, false, true, true}
	ba, err := BuildBlockAck(100, ok)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ok {
		if ba.Acked(uint16(100+i)) != v {
			t.Fatalf("seq %d acked=%v, want %v", 100+i, ba.Acked(uint16(100+i)), v)
		}
	}
	if ba.AckCount() != 3 {
		t.Errorf("count %d", ba.AckCount())
	}
	// Out-of-window sequences are unacked.
	if ba.Acked(100 + BAWindow) {
		t.Error("out-of-window seq acked")
	}
	if _, err := BuildBlockAck(0, make([]bool, BAWindow+1)); err == nil {
		t.Error("oversized window accepted")
	}
}

func TestBlockAckSeqWrap(t *testing.T) {
	// Window straddling the 12-bit sequence space boundary.
	ok := []bool{true, true}
	ba, err := BuildBlockAck(0x0fff, ok)
	if err != nil {
		t.Fatal(err)
	}
	if !ba.Acked(0x0fff) {
		t.Error("start seq not acked")
	}
	if !ba.Acked(0x1000) { // wraps to offset 1 modulo 4096
		t.Error("wrapped seq not acked")
	}
}

func TestSimulateARQLossless(t *testing.T) {
	res, err := SimulateARQ(rng.New(1), 0, 50, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Offered || res.Transmissions != res.Delivered {
		t.Errorf("lossless ARQ: %+v", res)
	}
	if res.Efficiency != 1 {
		t.Errorf("efficiency %g", res.Efficiency)
	}
}

func TestSimulateARQEfficiencyMatchesFER(t *testing.T) {
	// The analytic model assumes goodput = rate·(1−FER); the ARQ
	// simulation's airtime efficiency must converge to exactly that.
	for _, fer := range []float64{0.05, 0.1, 0.3} {
		res, err := SimulateARQ(rng.New(int64(fer*1000)), fer, 2000, 48, 16)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Efficiency-(1-fer)) > 0.02 {
			t.Errorf("FER %.2f: efficiency %.3f, want %.3f", fer, res.Efficiency, 1-fer)
		}
		// Mean attempts ≈ 1/(1−fer) for unlimited-ish retries.
		if math.Abs(res.MeanAttempts-1/(1-fer)) > 0.05 {
			t.Errorf("FER %.2f: attempts %.3f, want %.3f", fer, res.MeanAttempts, 1/(1-fer))
		}
	}
}

func TestSimulateARQValidation(t *testing.T) {
	if _, err := SimulateARQ(rng.New(1), 1.0, 10, 32, 3); err == nil {
		t.Error("FER 1.0 accepted")
	}
	if _, err := SimulateARQ(rng.New(1), 0.1, 10, 0, 3); err == nil {
		t.Error("zero aggregate accepted")
	}
	if _, err := SimulateARQ(rng.New(1), 0.1, 10, BAWindow+1, 3); err == nil {
		t.Error("oversized aggregate accepted")
	}
}

// AckCount returns the number of acknowledged MPDUs in the window.
func (b BlockAck) AckCount() int {
	n := 0
	for x := b.Bitmap; x != 0; x &= x - 1 {
		n++
	}
	return n
}
