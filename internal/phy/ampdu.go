package phy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// A-MPDU aggregation (802.11n §9.7): many MPDUs ride in one PHY
// transmission, each behind a delimiter with its own CRC, so one corrupted
// MPDU doesn't kill its siblings — the property that makes COPA's 4 ms
// TXOPs efficient and underlies the per-MPDU frame-error model in package
// ofdm. The delimiter here carries a length, a CRC over the length field,
// and the standard signature byte; each MPDU body is protected by an FCS.

const (
	// delimiterBytes is the A-MPDU delimiter size.
	delimiterBytes = 4
	// delimiterSignature is the 802.11n MPDU delimiter signature ('N').
	delimiterSignature = 0x4e
	// fcsBytes is the per-MPDU frame check sequence.
	fcsBytes = 4
	// maxMPDUBytes bounds a single MPDU body.
	maxMPDUBytes = 65535
)

// ErrBadAMPDU is returned for structurally invalid aggregates.
var ErrBadAMPDU = errors.New("phy: bad A-MPDU")

// delimiterCRC is the 8-bit CRC the standard puts over the delimiter's
// length field; we use the low byte of CRC-32 for simplicity (same
// detection role, simulator fidelity does not hinge on the polynomial).
func delimiterCRC(length uint16) byte {
	var buf [2]byte
	binary.LittleEndian.PutUint16(buf[:], length)
	return byte(crc32.ChecksumIEEE(buf[:]))
}

// Aggregate packs MPDU bodies into one A-MPDU byte stream: for each MPDU
// a delimiter (length, CRC, signature) followed by the body and its FCS,
// padded to 4-byte alignment as the standard requires.
func Aggregate(mpdus [][]byte) ([]byte, error) {
	var out []byte
	for i, m := range mpdus {
		if len(m) == 0 || len(m) > maxMPDUBytes-fcsBytes {
			return nil, fmt.Errorf("%w: MPDU %d has %d bytes", ErrBadAMPDU, i, len(m))
		}
		total := uint16(len(m) + fcsBytes)
		delim := make([]byte, delimiterBytes)
		binary.LittleEndian.PutUint16(delim[0:2], total)
		delim[2] = delimiterCRC(total)
		delim[3] = delimiterSignature
		out = append(out, delim...)
		out = append(out, m...)
		var fcs [fcsBytes]byte
		binary.LittleEndian.PutUint32(fcs[:], crc32.ChecksumIEEE(m))
		out = append(out, fcs[:]...)
		for len(out)%4 != 0 {
			out = append(out, 0)
		}
	}
	return out, nil
}
