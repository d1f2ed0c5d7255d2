package mac

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Addr is a 48-bit MAC address.
type Addr [6]byte

// String renders the address in colon-hex form.
func (a Addr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// FrameType discriminates ITS control frames on the wire.
type FrameType uint8

// The three ITS frame types of Fig. 5.
const (
	TypeITSInit FrameType = 1
	TypeITSReq  FrameType = 2
	TypeITSAck  FrameType = 3
)

// Decision is the leader's verdict carried in an ITS ACK (§3.1).
type Decision uint8

// Possible ITS ACK decisions.
const (
	// DecideSequential: the two APs take turns; the follower defers for
	// the rest of the coherence time.
	DecideSequential Decision = 1
	// DecideConcurrent: both APs transmit concurrently with the precoder
	// and power allocation included in the ACK.
	DecideConcurrent Decision = 2
)

// frame wire format:
//
//	magic(2) version(1) type(1) bodyLen(4) body(...) crc32(4)
//
// Control frames double as virtual carrier sense: every ITS frame carries
// an Airtime field announcing the duration of the coordinated transmission
// so third parties defer exactly as they would for RTS/CTS (§3.1).
const (
	frameMagic   = 0x17C5
	frameVersion = 1
	headerBytes  = 8
	trailerBytes = 4
)

// ErrBadFrame is returned for structurally invalid or corrupt frames.
var ErrBadFrame = errors.New("mac: bad ITS frame")

// ITSInit announces an AP's intent to send to a client; its sender
// becomes the Leader if it wins contention (Step 2 of Fig. 5).
type ITSInit struct {
	Leader Addr
	Client Addr
	// AirtimeUS is the announced duration (µs) third parties defer for.
	AirtimeUS uint32
	// TraceCtx is an optional compact trace context
	// (obs.TraceContextBinary) stitching the follower's spans into the
	// leader's trace. Empty TraceCtx marshals to the legacy 16-byte body,
	// so untraced exchanges stay byte-identical on the wire — airtime
	// accounting and golden figures are unchanged unless tracing is
	// actually propagating.
	TraceCtx []byte
}

// ITSReq is the follower's request to join the transmission opportunity;
// it carries the follower's compressed CSI toward both clients (Step 3).
type ITSReq struct {
	Leader, Follower Addr
	Client1, Client2 Addr
	AirtimeUS        uint32
	// CSIToClient1/2 are csi.EncodeLink payloads for the channels from
	// the follower to each client.
	CSIToClient1 []byte
	CSIToClient2 []byte
}

// ITSAck closes the exchange with the leader's chosen strategy; for
// concurrent transmissions it carries the precoding matrices the follower
// must apply (Step 4).
type ITSAck struct {
	Leader, Follower Addr
	Client1, Client2 Addr
	AirtimeUS        uint32
	Decision         Decision
	// FollowerPrecoder is a csi.EncodePrecoder payload (empty for
	// sequential decisions).
	FollowerPrecoder []byte
	// FollowerPowerMW is the per-subcarrier power allocation for the
	// follower, quantized to microwatts on the wire (empty for
	// sequential decisions). FollowerPowerMW[k][s] mirrors
	// precoding.Transmission.PowerMW.
	FollowerPowerMW [][]float64
}

func marshalFrame(t FrameType, body []byte) []byte {
	out := make([]byte, 0, headerBytes+len(body)+trailerBytes)
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint16(hdr[0:2], frameMagic)
	hdr[2] = frameVersion
	hdr[3] = byte(t)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(body)))
	out = append(out, hdr[:]...)
	out = append(out, body...)
	crc := crc32.ChecksumIEEE(out)
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], crc)
	return append(out, tr[:]...)
}

// unmarshalFrame validates framing and returns (type, body).
func unmarshalFrame(data []byte) (FrameType, []byte, error) {
	if len(data) < headerBytes+trailerBytes {
		return 0, nil, fmt.Errorf("%w: short frame (%d bytes)", ErrBadFrame, len(data))
	}
	if binary.LittleEndian.Uint16(data[0:2]) != frameMagic {
		return 0, nil, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if data[2] != frameVersion {
		return 0, nil, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, data[2])
	}
	bodyLen := int(binary.LittleEndian.Uint32(data[4:8]))
	if len(data) != headerBytes+bodyLen+trailerBytes {
		return 0, nil, fmt.Errorf("%w: length mismatch", ErrBadFrame)
	}
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(data[:len(data)-4]) != wantCRC {
		return 0, nil, fmt.Errorf("%w: CRC mismatch", ErrBadFrame)
	}
	return FrameType(data[3]), data[headerBytes : headerBytes+bodyLen], nil
}

// Marshal serializes the ITS INIT frame.
func (f *ITSInit) Marshal() []byte {
	var b bytes.Buffer
	b.Write(f.Leader[:])
	b.Write(f.Client[:])
	binary.Write(&b, binary.LittleEndian, f.AirtimeUS)
	if len(f.TraceCtx) > 0 {
		writeBlob(&b, f.TraceCtx)
	}
	return marshalFrame(TypeITSInit, b.Bytes())
}

// UnmarshalITSInit parses an ITS INIT frame: either the legacy 16-byte
// body or the extended form with a trailing trace-context blob.
func UnmarshalITSInit(data []byte) (*ITSInit, error) {
	t, body, err := unmarshalFrame(data)
	if err != nil {
		return nil, err
	}
	if t != TypeITSInit || len(body) < 16 {
		return nil, fmt.Errorf("%w: not an ITS INIT", ErrBadFrame)
	}
	f := &ITSInit{}
	copy(f.Leader[:], body[0:6])
	copy(f.Client[:], body[6:12])
	f.AirtimeUS = binary.LittleEndian.Uint32(body[12:16])
	if len(body) > 16 {
		r := bytes.NewReader(body[16:])
		if f.TraceCtx, err = readBlob(r); err != nil {
			return nil, err
		}
		if r.Len() != 0 {
			return nil, fmt.Errorf("%w: trailing bytes", ErrBadFrame)
		}
	}
	return f, nil
}

func writeBlob(b *bytes.Buffer, blob []byte) {
	binary.Write(b, binary.LittleEndian, uint32(len(blob)))
	b.Write(blob)
}

func readBlob(r *bytes.Reader) ([]byte, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, ErrBadFrame
	}
	if int(n) > r.Len() {
		return nil, ErrBadFrame
	}
	blob := make([]byte, n)
	if _, err := r.Read(blob); err != nil {
		return nil, ErrBadFrame
	}
	return blob, nil
}

// Marshal serializes the ITS REQ frame with its CSI payloads.
func (f *ITSReq) Marshal() []byte {
	var b bytes.Buffer
	b.Write(f.Leader[:])
	b.Write(f.Follower[:])
	b.Write(f.Client1[:])
	b.Write(f.Client2[:])
	binary.Write(&b, binary.LittleEndian, f.AirtimeUS)
	writeBlob(&b, f.CSIToClient1)
	writeBlob(&b, f.CSIToClient2)
	return marshalFrame(TypeITSReq, b.Bytes())
}

// UnmarshalITSReq parses an ITS REQ frame.
func UnmarshalITSReq(data []byte) (*ITSReq, error) {
	t, body, err := unmarshalFrame(data)
	if err != nil {
		return nil, err
	}
	if t != TypeITSReq || len(body) < 28 {
		return nil, fmt.Errorf("%w: not an ITS REQ", ErrBadFrame)
	}
	f := &ITSReq{}
	copy(f.Leader[:], body[0:6])
	copy(f.Follower[:], body[6:12])
	copy(f.Client1[:], body[12:18])
	copy(f.Client2[:], body[18:24])
	f.AirtimeUS = binary.LittleEndian.Uint32(body[24:28])
	r := bytes.NewReader(body[28:])
	if f.CSIToClient1, err = readBlob(r); err != nil {
		return nil, err
	}
	if f.CSIToClient2, err = readBlob(r); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadFrame)
	}
	return f, nil
}

// Marshal serializes the ITS ACK frame.
func (f *ITSAck) Marshal() []byte {
	var b bytes.Buffer
	b.Write(f.Leader[:])
	b.Write(f.Follower[:])
	b.Write(f.Client1[:])
	b.Write(f.Client2[:])
	binary.Write(&b, binary.LittleEndian, f.AirtimeUS)
	b.WriteByte(byte(f.Decision))
	writeBlob(&b, f.FollowerPrecoder)
	// Power allocation: nSC(2) nStreams(1) then µW uint32s.
	binary.Write(&b, binary.LittleEndian, uint16(len(f.FollowerPowerMW)))
	streams := 0
	if len(f.FollowerPowerMW) > 0 {
		streams = len(f.FollowerPowerMW[0])
	}
	b.WriteByte(uint8(streams))
	for _, row := range f.FollowerPowerMW {
		for _, p := range row {
			binary.Write(&b, binary.LittleEndian, uint32(p*1000+0.5))
		}
	}
	return marshalFrame(TypeITSAck, b.Bytes())
}

// UnmarshalITSAck parses an ITS ACK frame.
func UnmarshalITSAck(data []byte) (*ITSAck, error) {
	t, body, err := unmarshalFrame(data)
	if err != nil {
		return nil, err
	}
	if t != TypeITSAck || len(body) < 29 {
		return nil, fmt.Errorf("%w: not an ITS ACK", ErrBadFrame)
	}
	f := &ITSAck{}
	copy(f.Leader[:], body[0:6])
	copy(f.Follower[:], body[6:12])
	copy(f.Client1[:], body[12:18])
	copy(f.Client2[:], body[18:24])
	f.AirtimeUS = binary.LittleEndian.Uint32(body[24:28])
	f.Decision = Decision(body[28])
	if f.Decision != DecideSequential && f.Decision != DecideConcurrent {
		return nil, fmt.Errorf("%w: unknown decision %d", ErrBadFrame, f.Decision)
	}
	r := bytes.NewReader(body[29:])
	if f.FollowerPrecoder, err = readBlob(r); err != nil {
		return nil, err
	}
	var nsc uint16
	if err := binary.Read(r, binary.LittleEndian, &nsc); err != nil {
		return nil, ErrBadFrame
	}
	streamsByte, err := r.ReadByte()
	if err != nil {
		return nil, ErrBadFrame
	}
	streams := int(streamsByte)
	if nsc > 0 && streams > 0 {
		if r.Len() != int(nsc)*streams*4 {
			return nil, fmt.Errorf("%w: power matrix length", ErrBadFrame)
		}
		f.FollowerPowerMW = make([][]float64, nsc)
		for k := range f.FollowerPowerMW {
			row := make([]float64, streams)
			for s := range row {
				var uw uint32
				binary.Read(r, binary.LittleEndian, &uw)
				row[s] = float64(uw) / 1000
			}
			f.FollowerPowerMW[k] = row
		}
	}
	return f, nil
}

// FrameTypeOf peeks at a frame's type from its header without validating
// the CRC — what a receiver's filter does before committing to a full
// parse. It reports false for frames too short or with a garbled magic.
func FrameTypeOf(data []byte) (FrameType, bool) {
	if len(data) < headerBytes || binary.LittleEndian.Uint16(data[0:2]) != frameMagic {
		return 0, false
	}
	t := FrameType(data[3])
	if t < TypeITSInit || t > TypeITSAck {
		return 0, false
	}
	return t, true
}
