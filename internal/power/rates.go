package power

import (
	"copa/internal/channel"
	"copa/internal/ofdm"
	"copa/internal/precoding"
)

// GoodputFor predicts the goodput a client achieves for a given pair of
// concurrent transmissions under 802.11n's equal-modulation constraint:
// a single MCS and decoder span all spatial streams, so every used
// subcarrier–stream cell feeds one frame (§2.1). cross/crossTx may be nil
// for a sole sender.
func GoodputFor(own *channel.Link, tx *precoding.Transmission, cross *channel.Link, crossTx *precoding.Transmission, noisePerSCMW float64) float64 {
	var ws precoding.Workspace
	return GoodputForWS(&ws, own, tx, cross, crossTx, noisePerSCMW)
}

// GoodputForWS is GoodputFor with SINR scratch carved from ws.
func GoodputForWS(ws *precoding.Workspace, own *channel.Link, tx *precoding.Transmission, cross *channel.Link, crossTx *precoding.Transmission, noisePerSCMW float64) float64 {
	sinrs := precoding.StreamSINRsWS(ws, own, tx, cross, crossTx, noisePerSCMW, nil)
	return ofdm.JointBestRate(sinrs).GoodputBps
}

// streamRates picks the best MCS for each stream of a SINR matrix
// (rows are subcarriers, columns streams). The returned slice is
// heap-allocated and safe to retain.
func streamRates(ws *precoding.Workspace, sinrs [][]float64, streams int) []ofdm.StreamRate {
	rates := make([]ofdm.StreamRate, streams)
	col := ws.Float64s(len(sinrs))
	for s := range rates {
		for k := range sinrs {
			col[k] = sinrs[k][s]
		}
		rates[s] = ofdm.BestRate(col)
	}
	return rates
}

// MultiDecoderGoodputForWS predicts goodput when the receiver can run an
// independent rate (and decoder) per subcarrier — the Fig. 14
// hypothetical. Same SINR model as GoodputForWS, different rate mapping.
func MultiDecoderGoodputForWS(ws *precoding.Workspace, own *channel.Link, tx *precoding.Transmission, cross *channel.Link, crossTx *precoding.Transmission, noisePerSCMW float64) float64 {
	sinrs := precoding.StreamSINRsWS(ws, own, tx, cross, crossTx, noisePerSCMW, nil)
	var total float64
	col := ws.Float64s(len(sinrs))
	for s := 0; s < tx.Precoder.Streams; s++ {
		for k := range sinrs {
			col[k] = sinrs[k][s]
		}
		total += ofdm.MultiDecoderThroughputBps(col)
	}
	return total
}
