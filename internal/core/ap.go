package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"copa/internal/channel"
	"copa/internal/csi"
	"copa/internal/mac"
	"copa/internal/obs"
	"copa/internal/power"
	"copa/internal/precoding"
	"copa/internal/strategy"
)

// AP is one COPA access point: an address, a client, a scenario-shaped
// radio, and a CSI cache fed by overheard transmissions.
type AP struct {
	Addr       mac.Addr
	ClientAddr mac.Addr
	Scenario   channel.Scenario
	Imp        channel.Impairments
	Cache      *CSICache
	// Mode is the selection policy this AP applies when leading.
	Mode strategy.Mode

	// pendingTx is the transmission agreed in the latest exchange this
	// AP followed (nil after a sequential verdict).
	pendingTx *precoding.Transmission
}

// NewAP constructs an AP with an empty CSI cache.
func NewAP(addr, client mac.Addr, sc channel.Scenario, imp channel.Impairments, coherence time.Duration, mode strategy.Mode) *AP {
	return &AP{
		Addr:       addr,
		ClientAddr: client,
		Scenario:   sc,
		Imp:        imp,
		Cache:      NewCSICache(coherence),
		Mode:       mode,
	}
}

// ObserveTransmission models the AP overhearing a frame from addr and
// measuring the channel from it (Step 1 of Fig. 5). By reciprocity the
// AP→addr channel is the transpose of what it measured, which is what the
// cache stores: the downlink channel this AP (or the frame's sender)
// would see. The link passed in is the sender→AP measurement.
func (ap *AP) ObserveTransmission(from mac.Addr, measured *channel.Link, now time.Duration) {
	ap.Cache.Put(from, measured.Transpose(), now)
}

// errNoCSI is returned when the cache lacks fresh CSI for a peer.
var errNoCSI = errors.New("core: no fresh CSI")

// BuildITSInit announces intent to send to this AP's client for airtime
// µs of data (Step 2).
func (ap *AP) BuildITSInit(airtimeUS uint32) []byte {
	f := &mac.ITSInit{Leader: ap.Addr, Client: ap.ClientAddr, AirtimeUS: airtimeUS}
	return f.Marshal()
}

// BuildITSInitTrace is BuildITSInit carrying ctx's trace context in the
// frame's optional TraceCtx field, so the receiving process can stitch
// its spans into the sender's trace. With no sampled span in ctx the
// frame is byte-identical to BuildITSInit's.
func (ap *AP) BuildITSInitTrace(ctx context.Context, airtimeUS uint32) []byte {
	f := &mac.ITSInit{
		Leader:    ap.Addr,
		Client:    ap.ClientAddr,
		AirtimeUS: airtimeUS,
		TraceCtx:  obs.TraceContextBinary(ctx),
	}
	return f.Marshal()
}

// BuildITSReq is the follower's response to an overheard ITS INIT: it
// looks up fresh CSI from itself to both clients, compresses it, and
// offers to join the transmission opportunity (Step 3).
func (ap *AP) BuildITSReq(initFrame []byte, now time.Duration) ([]byte, error) {
	init, err := mac.UnmarshalITSInit(initFrame)
	if err != nil {
		return nil, err
	}
	toLeaderClient, ok := ap.Cache.Get(init.Client, now)
	if !ok {
		return nil, fmt.Errorf("%w for leader's client %v", errNoCSI, init.Client)
	}
	toOwnClient, ok := ap.Cache.Get(ap.ClientAddr, now)
	if !ok {
		return nil, fmt.Errorf("%w for own client %v", errNoCSI, ap.ClientAddr)
	}
	csi1, err := csi.EncodeLink(toLeaderClient)
	if err != nil {
		return nil, err
	}
	csi2, err := csi.EncodeLink(toOwnClient)
	if err != nil {
		return nil, err
	}
	req := &mac.ITSReq{
		Leader:       init.Leader,
		Follower:     ap.Addr,
		Client1:      init.Client,
		Client2:      ap.ClientAddr,
		AirtimeUS:    init.AirtimeUS,
		CSIToClient1: csi1,
		CSIToClient2: csi2,
	}
	return req.Marshal(), nil
}

// LeadDecision is what the leader concludes from an ITS REQ.
type LeadDecision struct {
	// Outcome is the chosen strategy (predicted throughputs only; the
	// leader has no ground truth).
	Outcome strategy.Outcome
	// LeaderTx and FollowerTx are the transmission descriptors; for a
	// sequential decision FollowerTx is nil and the follower defers.
	LeaderTx   *precoding.Transmission
	FollowerTx *precoding.Transmission
	// Ack is the marshaled ITS ACK to broadcast (Step 4).
	Ack []byte
}

// HandleITSReq runs the leader's strategy computation (Fig. 8): decode the
// follower's CSI, join it with the leader's own cached CSI, evaluate all
// strategies, select per the AP's mode, and build the ITS ACK. The leader
// is AP index 0 in the evaluator's coordinates; the follower is AP 1.
func (ap *AP) HandleITSReq(reqFrame []byte, now time.Duration) (*LeadDecision, error) {
	req, err := mac.UnmarshalITSReq(reqFrame)
	if err != nil {
		return nil, err
	}
	if req.Leader != ap.Addr {
		return nil, fmt.Errorf("core: ITS REQ addressed to %v, not us", req.Leader)
	}
	ownToC1, ok := ap.Cache.Get(ap.ClientAddr, now)
	if !ok {
		return nil, fmt.Errorf("%w for own client", errNoCSI)
	}
	ownToC2, ok := ap.Cache.Get(req.Client2, now)
	if !ok {
		return nil, fmt.Errorf("%w for follower's client", errNoCSI)
	}
	folToC1, err := csi.DecodeLink(req.CSIToClient1)
	if err != nil {
		return nil, err
	}
	folToC2, err := csi.DecodeLink(req.CSIToClient2)
	if err != nil {
		return nil, err
	}

	est := [2][2]*channel.Link{{ownToC1, ownToC2}, {folToC1, folToC2}}
	ev := strategy.NewEvaluatorFromCSI(ap.Scenario, est, ap.Imp)
	outcomes, err := ev.EvaluateAll()
	if err != nil {
		return nil, err
	}
	choice := strategy.Select(ap.Mode, outcomes)

	dec := &LeadDecision{Outcome: choice}
	ack := &mac.ITSAck{
		Leader:    ap.Addr,
		Follower:  req.Follower,
		Client1:   req.Client1,
		Client2:   req.Client2,
		AirtimeUS: req.AirtimeUS,
	}
	leaderTx, followerTx, err := ev.TransmissionsFor(choice)
	if err != nil {
		return nil, err
	}
	dec.LeaderTx = leaderTx
	if choice.Concurrent {
		ack.Decision = mac.DecideConcurrent
		dec.FollowerTx = followerTx
		pre, err := csi.EncodePrecoder(followerTx.Precoder.PerSubcarrier)
		if err != nil {
			return nil, err
		}
		ack.FollowerPrecoder = pre
		ack.FollowerPowerMW = followerTx.PowerMW
	} else {
		ack.Decision = mac.DecideSequential
	}
	dec.Ack = ack.Marshal()
	return dec, nil
}

// HandleITSAck is the follower's final step: parse the leader's verdict
// and, for concurrent decisions, reconstruct the precoder and power
// allocation it must transmit with. For a sequential verdict the follower
// defers this TXOP, then transmits solo in its own turn: it computes its
// own COPA-SEQ beamforming and allocation from cached CSI, which is also
// returned so callers can score the sequential schedule.
func (ap *AP) HandleITSAck(ackFrame []byte, now time.Duration) (*mac.ITSAck, *precoding.Transmission, error) {
	ack, err := mac.UnmarshalITSAck(ackFrame)
	if err != nil {
		return nil, nil, err
	}
	if ack.Follower != ap.Addr {
		return nil, nil, fmt.Errorf("core: ITS ACK for %v, not us", ack.Follower)
	}
	if ack.Decision == mac.DecideSequential {
		ap.pendingTx = nil
		solo, err := ap.SoloTransmission(now)
		if err != nil {
			return ack, nil, nil // no fresh CSI: fall back to defaults later
		}
		return ack, solo, nil
	}
	ms, err := csi.DecodeMatrices(ack.FollowerPrecoder)
	if err != nil {
		return nil, nil, err
	}
	if len(ms) == 0 || len(ack.FollowerPowerMW) != len(ms) {
		return nil, nil, fmt.Errorf("%w: precoder/power shape", mac.ErrBadFrame)
	}
	p := &precoding.Precoder{PerSubcarrier: ms, Streams: ms[0].Cols}
	tx := precoding.NewTransmission(p, ack.FollowerPowerMW, ap.Imp)
	ap.pendingTx = tx
	return ack, tx, nil
}

// CSMATransmission is the stock-802.11n transmission this AP reverts to
// when an ITS exchange exhausts its retry budget: implicit SVD
// beamforming toward its own client with equal power on every subcarrier
// — the paper's CSMA baseline, requiring no coordination at all.
func (ap *AP) CSMATransmission(now time.Duration) (*precoding.Transmission, error) {
	own, ok := ap.Cache.Get(ap.ClientAddr, now)
	if !ok {
		return nil, fmt.Errorf("%w for own client", errNoCSI)
	}
	streams := ap.Scenario.Streams
	bf, err := precoding.Beamforming(own, streams)
	if err != nil {
		return nil, err
	}
	powers := precoding.EqualSplit(len(own.Subcarriers), streams, channel.BudgetForAntennasMW(ap.Scenario.APAntennas))
	return precoding.NewTransmission(bf, powers, ap.Imp), nil
}

// SoloTransmission computes this AP's stand-alone COPA-SEQ transmission
// toward its own client (beamforming plus Equi-SNR allocation with
// subcarrier selection) from cached CSI.
func (ap *AP) SoloTransmission(now time.Duration) (*precoding.Transmission, error) {
	own, ok := ap.Cache.Get(ap.ClientAddr, now)
	if !ok {
		return nil, fmt.Errorf("%w for own client", errNoCSI)
	}
	streams := ap.Scenario.Streams
	bf, err := precoding.Beamforming(own, streams)
	if err != nil {
		return nil, err
	}
	cfg := power.DefaultConfig()
	cfg.Impairments = ap.Imp
	res := power.Sequential(power.SenderCSI{
		Own:      own,
		Precoder: bf,
		BudgetMW: channel.BudgetForAntennasMW(ap.Scenario.APAntennas),
	}, cfg)
	return res.Tx[0], nil
}
