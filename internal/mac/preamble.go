package mac

import "copa/internal/ofdm"

// SubcarrierMap is the bitmap COPA places in the A-MPDU preamble to tell
// the receiver which subcarriers to attempt to decode (§3.2): dropped
// subcarriers carry no data, and a receiver that tried to decode them
// would feed garbage into its single Viterbi decoder.
type SubcarrierMap [(ofdm.NumSubcarriers + 7) / 8]byte

// Used reports whether subcarrier k carries data.
func (m SubcarrierMap) Used(k int) bool {
	if k < 0 || k >= ofdm.NumSubcarriers {
		return false
	}
	return m[k/8]&(1<<(k%8)) != 0
}

// Count returns the number of used subcarriers.
func (m SubcarrierMap) Count() int {
	n := 0
	for k := 0; k < ofdm.NumSubcarriers; k++ {
		if m.Used(k) {
			n++
		}
	}
	return n
}

// Marshal returns the map's fixed wire representation (7 bytes for 52
// subcarriers — the preamble cost of COPA's selective decoding).
func (m SubcarrierMap) Marshal() []byte {
	out := make([]byte, len(m))
	copy(out, m[:])
	return out
}
