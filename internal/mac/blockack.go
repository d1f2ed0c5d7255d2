package mac

import (
	"fmt"

	"copa/internal/rng"
)

// Block acknowledgement (802.11n §9.10): an A-MPDU's recipient reports
// per-MPDU success in a 64-bit bitmap; the sender retransmits only the
// holes. This is the mechanism that turns a per-MPDU frame-error rate
// into goodput ≈ rate·(1−FER) — the identity the analytic throughput
// model (ofdm.JointRate) assumes, verified here by simulation.

// BAWindow is the standard block-ack reordering window size.
const BAWindow = 64

// BlockAck is a compressed block-ack bitmap starting at a sequence number.
type BlockAck struct {
	StartSeq uint16
	Bitmap   uint64
}

// Acked reports whether sequence seq is acknowledged.
func (b BlockAck) Acked(seq uint16) bool {
	off := int(seq-b.StartSeq) & 0xfff
	if off >= BAWindow {
		return false
	}
	return b.Bitmap&(1<<off) != 0
}

// BuildBlockAck assembles the bitmap from per-MPDU outcomes for the
// window starting at startSeq.
func BuildBlockAck(startSeq uint16, ok []bool) (BlockAck, error) {
	if len(ok) > BAWindow {
		return BlockAck{}, fmt.Errorf("mac: %d MPDUs exceed the %d-frame BA window", len(ok), BAWindow)
	}
	ba := BlockAck{StartSeq: startSeq}
	for i, v := range ok {
		if v {
			ba.Bitmap |= 1 << i
		}
	}
	return ba, nil
}

// ARQResult summarizes a block-ack retransmission simulation.
type ARQResult struct {
	// Offered is the number of distinct MPDUs injected.
	Offered int
	// Delivered counts MPDUs eventually acknowledged.
	Delivered int
	// Transmissions counts every MPDU send, including retries.
	Transmissions int
	// MeanAttempts is Transmissions / Delivered.
	MeanAttempts float64
	// Efficiency is Delivered / Transmissions — the airtime fraction
	// carrying new data, which must converge to 1−FER for independent
	// losses.
	Efficiency float64
}

// SimulateARQ runs a saturated sender for `rounds` A-MPDUs of up to
// perAggregate MPDUs each, each MPDU independently lost with probability
// fer, with real block-ack window semantics: the window cannot advance
// past the oldest unacknowledged MPDU, holes are retransmitted ahead of
// new data, and an MPDU is abandoned after maxRetries failures (a window
// stall then resolves by advancing past it).
func SimulateARQ(src *rng.Source, fer float64, rounds, perAggregate, maxRetries int) (ARQResult, error) {
	if perAggregate < 1 || perAggregate > BAWindow {
		return ARQResult{}, fmt.Errorf("mac: aggregate size %d out of range", perAggregate)
	}
	if fer < 0 || fer >= 1 {
		return ARQResult{}, fmt.Errorf("mac: FER %g out of range", fer)
	}
	var res ARQResult
	retries := make(map[uint16]int) // unacked seq → attempts so far
	winStart := uint16(0)
	next := uint16(0) // next fresh sequence number

	off := func(s uint16) int { return int(s-winStart) & 0xfff }

	for r := 0; r < rounds; r++ {
		// Assemble the batch: pending retransmissions (oldest first),
		// then fresh MPDUs, all within [winStart, winStart+BAWindow).
		batch := make([]uint16, 0, perAggregate)
		for o := 0; o < BAWindow && len(batch) < perAggregate; o++ {
			s := winStart + uint16(o)
			if s == next {
				break
			}
			if _, pending := retries[s]; pending {
				batch = append(batch, s)
			}
		}
		for len(batch) < perAggregate && off(next) < BAWindow {
			batch = append(batch, next)
			retries[next] = 0
			res.Offered++
			next++
		}
		if len(batch) == 0 {
			continue
		}
		// Transmit and build the block ack.
		ok := make([]bool, BAWindow)
		for _, s := range batch {
			res.Transmissions++
			if !src.Bool(fer) {
				ok[off(s)] = true
			}
		}
		ba, _ := BuildBlockAck(winStart, ok) // len(ok) == BAWindow always fits
		// Process outcomes.
		for _, s := range batch {
			if ba.Acked(s) {
				res.Delivered++
				delete(retries, s)
				continue
			}
			retries[s]++
			if retries[s] > maxRetries {
				delete(retries, s) // abandoned
			}
		}
		// Advance the window past fully resolved sequences.
		for winStart != next {
			if _, pending := retries[winStart]; pending {
				break
			}
			winStart++
		}
	}
	if res.Delivered > 0 {
		res.MeanAttempts = float64(res.Transmissions) / float64(res.Delivered)
	}
	if res.Transmissions > 0 {
		res.Efficiency = float64(res.Delivered) / float64(res.Transmissions)
	}
	return res, nil
}
