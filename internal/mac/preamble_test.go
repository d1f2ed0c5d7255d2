package mac

import (
	"fmt"
	"testing"
	"testing/quick"

	"copa/internal/ofdm"
)

func TestSubcarrierMapRoundTrip(t *testing.T) {
	used := make([]bool, ofdm.NumSubcarriers)
	for k := range used {
		used[k] = k%3 != 0
	}
	m, err := NewSubcarrierMap(used)
	if err != nil {
		t.Fatal(err)
	}
	for k := range used {
		if m.Used(k) != used[k] {
			t.Fatalf("bit %d mismatch", k)
		}
	}
	wire := m.Marshal()
	if len(wire) != 7 {
		t.Errorf("wire size %d, want 7", len(wire))
	}
	back, err := UnmarshalSubcarrierMap(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Error("wire round trip mismatch")
	}
}

func TestSubcarrierMapValidation(t *testing.T) {
	if _, err := NewSubcarrierMap(make([]bool, 10)); err == nil {
		t.Error("wrong flag count accepted")
	}
	if _, err := UnmarshalSubcarrierMap([]byte{1, 2}); err == nil {
		t.Error("short wire form accepted")
	}
	var m SubcarrierMap
	if m.Used(-1) || m.Used(ofdm.NumSubcarriers) {
		t.Error("out-of-range indices should read false")
	}
}

func TestSubcarrierMapFromPowers(t *testing.T) {
	powers := make([][]float64, ofdm.NumSubcarriers)
	for k := range powers {
		powers[k] = []float64{0, 0}
	}
	powers[3][1] = 0.5
	powers[10][0] = 0.1
	m, err := SubcarrierMapFromPowers(powers)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 2 || !m.Used(3) || !m.Used(10) || m.Used(4) {
		t.Errorf("map from powers wrong: count=%d", m.Count())
	}
}

func TestQuickSubcarrierMapCount(t *testing.T) {
	f := func(bits uint64) bool {
		used := make([]bool, ofdm.NumSubcarriers)
		want := 0
		for k := range used {
			if bits&(1<<(k%64)) != 0 && k%2 == 0 {
				used[k] = true
				want++
			}
		}
		m, err := NewSubcarrierMap(used)
		return err == nil && m.Count() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// SubcarrierMapFromPowers derives the map from a power allocation: a
// subcarrier is decodable if any stream carries power on it.
func SubcarrierMapFromPowers(powersMW [][]float64) (SubcarrierMap, error) {
	used := make([]bool, len(powersMW))
	for k, row := range powersMW {
		for _, p := range row {
			if p > 0 {
				used[k] = true
				break
			}
		}
	}
	return NewSubcarrierMap(used)
}

// UnmarshalSubcarrierMap parses a marshaled map.
func UnmarshalSubcarrierMap(data []byte) (SubcarrierMap, error) {
	var m SubcarrierMap
	if len(data) != len(m) {
		return m, fmt.Errorf("%w: subcarrier map length %d", ErrBadFrame, len(data))
	}
	copy(m[:], data)
	return m, nil
}

// NewSubcarrierMap builds a map from per-subcarrier usage flags.
func NewSubcarrierMap(used []bool) (SubcarrierMap, error) {
	var m SubcarrierMap
	if len(used) != ofdm.NumSubcarriers {
		return m, fmt.Errorf("mac: subcarrier map needs %d flags, got %d", ofdm.NumSubcarriers, len(used))
	}
	for k, u := range used {
		if u {
			m[k/8] |= 1 << (k % 8)
		}
	}
	return m, nil
}
