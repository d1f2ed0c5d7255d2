// Command itsdump builds the three ITS control frames for a synthetic
// topology, prints their wire sizes and the CSI compression statistics,
// and round-trips every frame through its codec as a self-check.
//
// Usage:
//
//	itsdump -scenario 4x2 -seed 7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"copa/internal/channel"
	"copa/internal/csi"
	"copa/internal/mac"
	"copa/internal/ofdm"
	"copa/internal/precoding"
	"copa/internal/rng"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("itsdump", flag.ContinueOnError)
	scenario := fs.String("scenario", "4x2", "antenna scenario: 1x1, 4x2 or 3x2")
	seed := fs.Int64("seed", 1, "channel seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var sc channel.Scenario
	switch *scenario {
	case "1x1":
		sc = channel.Scenario1x1
	case "4x2":
		sc = channel.Scenario4x2
	case "3x2":
		sc = channel.Scenario3x2
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		return 1
	}
	if err := dump(stdout, sc, *seed); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// dump builds the three frames for one topology, prints their sizes
// and the CSI compression statistics, and round-trips each frame.
func dump(w io.Writer, sc channel.Scenario, seed int64) error {
	src := rng.New(seed)
	dep := channel.NewDeployment(src.Split(1), sc)
	imp := channel.DefaultImpairments()

	// The follower's CSI to both clients, as carried in the ITS REQ.
	csi1raw := imp.EstimateCSI(src.Split(2), dep.H[1][0])
	csi2raw := imp.EstimateCSI(src.Split(3), dep.H[1][1])
	blob1, err := csi.EncodeLink(csi1raw)
	if err != nil {
		return err
	}
	blob2, err := csi.EncodeLink(csi2raw)
	if err != nil {
		return err
	}

	raw := csi.RawSize(sc.ClientAntennas, sc.APAntennas, ofdm.NumSubcarriers)
	fmt.Fprintf(w, "scenario %s: CSI raw %d B → compressed %d B / %d B (ratios %.2f / %.2f)\n",
		sc.Name, raw, len(blob1), len(blob2),
		csi.Ratio(raw, len(blob1)), csi.Ratio(raw, len(blob2)))

	rec1, err := csi.DecodeLink(blob1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "CSI reconstruction error: %.1f dB\n",
		csi.ReconstructionErrorDB(csi1raw.Subcarriers, rec1.Subcarriers))

	addr := func(b byte) mac.Addr { return mac.Addr{0x02, 0, 0, 0, 0, b} }
	init := &mac.ITSInit{Leader: addr(1), Client: addr(0x11), AirtimeUS: 4000}
	initFrame := init.Marshal()

	req := &mac.ITSReq{
		Leader: addr(1), Follower: addr(2),
		Client1: addr(0x11), Client2: addr(0x12),
		AirtimeUS:    4000,
		CSIToClient1: blob1, CSIToClient2: blob2,
	}
	reqFrame := req.Marshal()

	ack := &mac.ITSAck{
		Leader: addr(1), Follower: addr(2),
		Client1: addr(0x11), Client2: addr(0x12),
		AirtimeUS: 4000, Decision: mac.DecideSequential,
	}
	if sc.APAntennas > sc.ClientAntennas {
		p, err := precoding.Nulling(csi2raw, csi1raw, sc.APAntennas-sc.ClientAntennas)
		if err != nil {
			return err
		}
		pre, err := csi.EncodePrecoder(p.PerSubcarrier)
		if err != nil {
			return err
		}
		ack.Decision = mac.DecideConcurrent
		ack.FollowerPrecoder = pre
		ack.FollowerPowerMW = precoding.EqualSplit(ofdm.NumSubcarriers, p.Streams, channel.BudgetForAntennasMW(sc.APAntennas))
	}
	ackFrame := ack.Marshal()

	fmt.Fprintf(w, "\nwire sizes: ITS INIT %d B · ITS REQ %d B · ITS ACK %d B\n",
		len(initFrame), len(reqFrame), len(ackFrame))

	// Round-trip self-check.
	if _, err := mac.UnmarshalITSInit(initFrame); err != nil {
		return err
	}
	if _, err := mac.UnmarshalITSReq(reqFrame); err != nil {
		return err
	}
	if _, err := mac.UnmarshalITSAck(ackFrame); err != nil {
		return err
	}
	fmt.Fprintln(w, "round-trip: all three frames decode cleanly")
	return nil
}
