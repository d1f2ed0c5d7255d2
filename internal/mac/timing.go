// Package mac models COPA's medium access layer (§3.1): 802.11 DCF
// timing, the ITS INIT/REQ/ACK control-frame wire formats with their
// compressed CSI payloads, the analytic MAC-overhead accounting behind the
// paper's Table 1, and an event-driven contention simulator used to study
// fairness when more than two senders share the medium (including the
// post-ITS deference window the paper proposes as future work).
package mac

import "time"

// 802.11 OFDM (2.4 GHz, 20 MHz) MAC timing constants.
const (
	// SlotTime is the short slot duration.
	SlotTime = 9 * time.Microsecond

	// SIFS is the short interframe space.
	SIFS = 10 * time.Microsecond

	// DIFS = SIFS + 2 slots.
	DIFS = SIFS + 2*SlotTime

	// PLCPPreamble approximates the 802.11n mixed-format preamble plus
	// PLCP header transmitted before any frame body.
	PLCPPreamble = 20 * time.Microsecond

	// CWMin is the initial contention window (aCWmin slots).
	CWMin = 15

	// CWMax bounds binary exponential backoff.
	CWMax = 1023

	// ControlRateBps is the base rate control frames are sent at.
	ControlRateBps = 24e6

	// TxOp is the transmit opportunity used for throughput accounting,
	// matching the paper's 4 ms.
	TxOp = 4 * time.Millisecond
)

// Standard control frame body sizes (bytes).
const (
	RTSBytes = 20
	CTSBytes = 14
)

// FrameAirtime returns the on-air duration of a frame body of the given
// size at the given PHY rate, including the PLCP preamble.
func FrameAirtime(bytes int, rateBps float64) time.Duration {
	payload := time.Duration(float64(bytes*8) / rateBps * float64(time.Second))
	return PLCPPreamble + payload
}

// MeanBackoff returns the expected initial DCF backoff duration
// (CWmin/2 slots), the per-acquisition contention cost in the absence of
// collisions.
func MeanBackoff() time.Duration {
	return time.Duration(CWMin) * SlotTime / 2
}
