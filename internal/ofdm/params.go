// Package ofdm models the 802.11n OFDM physical layer at the granularity
// COPA needs: the 20 MHz subcarrier structure, the high-throughput MCS
// table, analytic uncoded bit-error rates per constellation, union-bound
// coded BER for the 802.11 convolutional code, and the mapping from
// per-subcarrier SINR to predicted throughput under a single decoder (the
// hardware constraint that motivates COPA) or one decoder per subcarrier
// (the Fig. 14 thought experiment).
package ofdm

import "time"

// 802.11n 20 MHz channelization constants.
const (
	// NumSubcarriers is the number of data subcarriers in a 20 MHz
	// 802.11n HT channel (out of a 64-point FFT; 4 pilots and 8 guard/DC
	// bins carry no data; the paper's per-subcarrier plots span ~52).
	NumSubcarriers = 52

	// FFTSize is the OFDM FFT length for a 20 MHz channel.
	FFTSize = 64

	// SymbolDuration is the full OFDM symbol time including the 800 ns
	// guard interval (3.2 µs useful + 0.8 µs cyclic prefix).
	SymbolDuration = 4 * time.Microsecond

	// MPDUBytes is the MAC protocol data unit size assumed when turning
	// bit-error rates into frame-error rates. A-MPDU aggregation retries
	// each MPDU independently, so throughput scales with per-MPDU
	// delivery probability.
	MPDUBytes = 1500
)
