// Command copamac explores COPA's MAC layer: the Table 1 overhead model
// for arbitrary coherence times, and the multi-station DCF fairness
// simulation including the post-ITS deference window (§3.1).
//
// Usage:
//
//	copamac -coherence 4ms,30ms,1s
//	copamac -dcf -stations 4 -txops 20000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"copa/internal/channel"
	"copa/internal/core"
	"copa/internal/mac"
	"copa/internal/rng"
	"copa/internal/strategy"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("copamac", flag.ContinueOnError)
	coherences := fs.String("coherence", "4ms,30ms,1s", "comma-separated coherence times for the overhead table")
	dcf := fs.Bool("dcf", false, "run the slotted DCF fairness simulation instead")
	cluster := fs.Bool("cluster", false, "run the full-protocol cluster fairness simulation instead")
	stations := fs.Int("stations", 3, "number of contending stations/pairs")
	txops := fs.Int("txops", 20000, "TXOPs to simulate (DCF mode)")
	rounds := fs.Int("rounds", 40, "contention rounds (cluster mode)")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *dcf {
		runDCF(stdout, *stations, *txops, *seed)
		return 0
	}
	if *cluster {
		return runCluster(stdout, *stations, *rounds, *seed)
	}

	var tcs []time.Duration
	for _, tok := range strings.Split(*coherences, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(tok))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad coherence time %q: %v\n", tok, err)
			return 1
		}
		tcs = append(tcs, d)
	}
	m := mac.DefaultOverheadModel()
	fmt.Fprintln(stdout, "coherence   COPA-Conc  COPA-Seq  CSMA-CTS  CSMA-RTS/CTS")
	for _, r := range m.Table1(tcs...) {
		fmt.Fprintf(stdout, "%9s   %8.2f%%  %7.2f%%  %7.2f%%  %11.2f%%\n",
			r.Coherence, r.COPAConc*100, r.COPASeq*100, r.CSMACTS*100, r.CSMARTS*100)
	}
	return 0
}

func runCluster(w io.Writer, pairs, rounds int, seed int64) int {
	fmt.Fprintf(w, "cluster of %d COPA pairs (4x2), %d contention rounds, full ITS protocol\n\n", pairs, rounds)
	for _, cfg := range []struct {
		name      string
		deference bool
	}{
		{"no deference", false},
		{"with §3.1 deference", true},
	} {
		src := rng.New(seed)
		dep, err := channel.NewMultiDeployment(src.Split(1), channel.Scenario4x2, pairs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		c := core.NewCluster(dep, channel.DefaultImpairments(), 30*time.Millisecond, strategy.ModeFair, src.Split(2))
		c.Deference = cfg.deference
		stats, err := c.RunRounds(rounds)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(w, "%-20s Jain=%.4f concurrent=%.0f%% airtime=", cfg.name, stats.JainIndex, stats.ConcurrentFraction*100)
		for i, a := range stats.AirtimeShare {
			if i > 0 {
				fmt.Fprint(w, "/")
			}
			fmt.Fprintf(w, "%.3f", a)
		}
		fmt.Fprintf(w, "  tput=")
		for i, tp := range stats.MeanTputBps {
			if i > 0 {
				fmt.Fprint(w, "/")
			}
			fmt.Fprintf(w, "%.0f", tp/1e6)
		}
		fmt.Fprintln(w, " Mb/s")
	}
	return 0
}

func runDCF(w io.Writer, stations, txops int, seed int64) {
	fmt.Fprintf(w, "DCF with %d stations; stations 0,1 form a COPA pair (sequential verdicts)\n\n", stations)
	for _, cfg := range []struct {
		name string
		d    mac.DCF
	}{
		{"plain DCF (no COPA)", mac.DCF{Stations: stations}},
		{"COPA pair, no deference", mac.DCF{Stations: stations, COPAPair: true}},
		{"COPA pair + deference (§3.1)", mac.DCF{Stations: stations, COPAPair: true, Deference: true}},
	} {
		stats := cfg.d.Run(rng.New(seed), txops)
		fmt.Fprintf(w, "%-30s Jain=%.4f collisions=%.2f%% airtime=", cfg.name, stats.JainIndex, stats.Collisions*100)
		for i, a := range stats.Airtime {
			if i > 0 {
				fmt.Fprint(w, "/")
			}
			fmt.Fprintf(w, "%.3f", a)
		}
		fmt.Fprintln(w)
	}
}
