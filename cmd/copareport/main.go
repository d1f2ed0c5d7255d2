// Command copareport regenerates the paper's evaluation and writes a
// single self-contained HTML report with every figure rendered as inline
// SVG — CDFs, per-subcarrier curves, the topology scatter, and the
// summary tables, each annotated with the paper's own numbers.
//
// Usage:
//
//	copareport -o report.html -topologies 30
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"copa/internal/channel"
	"copa/internal/obs"
	"copa/internal/testbed"
	"copa/internal/viz"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("copareport", flag.ContinueOnError)
	out := fs.String("o", "report.html", "output HTML file")
	seed := fs.Int64("seed", 1, "master seed")
	topologies := fs.Int("topologies", 30, "topologies per scenario")
	skipPlus := fs.Bool("skip-copa-plus", false, "skip the slow COPA+ variants")
	verbose := fs.Bool("v", false, "debug logging (per-section progress)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	obs.SetVerbose(*verbose)
	logger := obs.Logger()

	var b strings.Builder
	b.WriteString(`<!DOCTYPE html><html><head><meta charset="utf-8">
<title>COPA reproduction report</title>
<style>body{font-family:sans-serif;max-width:900px;margin:2em auto;padding:0 1em}
h2{border-bottom:1px solid #ccc;padding-bottom:4px}
table{border-collapse:collapse}td,th{border:1px solid #999;padding:4px 10px;text-align:right}
th:first-child,td:first-child{text-align:left}.paper{color:#888}</style></head><body>
<h1>COPA — reproduction report</h1>
<p>Every figure and table of the CoNEXT 2015 evaluation, regenerated on the
simulated testbed (seed `)
	fmt.Fprintf(&b, "%d, %d topologies). Grey values are the paper's.</p>", *seed, *topologies)

	failed := false
	section := func(title string, f func() error) {
		if failed {
			return
		}
		fmt.Fprintf(&b, "<h2>%s</h2>", title)
		logger.Debug("rendering section", "section", title, "seed", *seed, "topologies", *topologies)
		if err := f(); err != nil {
			logger.Error("section failed", "section", title, "err", err)
			failed = true
		}
	}

	section("Figure 2 — narrow-band fading", func() error {
		f := testbed.RunFigure2(*seed)
		ch := viz.Chart{Title: "Received power per subcarrier", XLabel: "subcarrier", YLabel: "dBm"}
		for a := 0; a < 2; a++ {
			s := viz.Series{Name: fmt.Sprintf("antenna %d", a+1)}
			for k, v := range f.PowerDBm[a] {
				s.X = append(s.X, float64(k))
				s.Y = append(s.Y, v)
			}
			ch.Series = append(ch.Series, s)
		}
		b.WriteString(ch.SVG())
		return nil
	})

	section("Figure 3 — end-to-end effect of nulling", func() error {
		f := testbed.RunFigure3(*seed, *topologies)
		fmt.Fprintf(&b, `<table><tr><th></th><th>measured</th><th class="paper">paper</th></tr>
<tr><td>INR reduction</td><td>%+.1f dB (σ %.1f)</td><td class="paper">≈−27 dB</td></tr>
<tr><td>SNR reduction</td><td>%+.1f dB (σ %.1f)</td><td class="paper">≈−8 dB</td></tr>
<tr><td>SINR increase</td><td>%+.1f dB (σ %.1f)</td><td class="paper">≈+18 dB</td></tr></table>`,
			f.INRReductionMeanDB, f.INRReductionStdDB,
			f.SNRReductionMeanDB, f.SNRReductionStdDB,
			f.SINRIncreaseMeanDB, f.SINRIncreaseStdDB)
		return nil
	})

	section("Figure 4 — per-subcarrier effects of nulling", func() error {
		f := testbed.RunFigure4(*seed)
		ch := viz.Chart{Title: "S(I)NR per subcarrier", XLabel: "subcarrier", YLabel: "dB"}
		add := func(name string, ys []float64) {
			s := viz.Series{Name: name}
			for k, v := range ys {
				s.X = append(s.X, float64(k))
				s.Y = append(s.Y, v)
			}
			ch.Series = append(ch.Series, s)
		}
		add("SNR BF", f.SNRBFDB)
		add("SNR Null", f.SNRNullDB)
		add("SINR Null", f.SINRNullDB)
		b.WriteString(ch.SVG())
		return nil
	})

	section("Table 1 — MAC overhead", func() error {
		b.WriteString(`<table><tr><th>coherence</th><th>COPA conc</th><th>COPA seq</th><th>CSMA CTS</th><th>CSMA RTS/CTS</th></tr>`)
		paper := [][2][4]float64{
			{{9.3, 7.7, 2.7, 3.7}}, {{5.1, 3.5, 2.7, 3.7}}, {{4.5, 2.8, 2.7, 3.7}},
		}
		for i, r := range testbed.Table1() {
			p := paper[i][0]
			fmt.Fprintf(&b, `<tr><td>%s</td><td>%.1f%% <span class="paper">(%.1f)</span></td><td>%.1f%% <span class="paper">(%.1f)</span></td><td>%.1f%% <span class="paper">(%.1f)</span></td><td>%.1f%% <span class="paper">(%.1f)</span></td></tr>`,
				r.Coherence, r.COPAConc*100, p[0], r.COPASeq*100, p[1], r.CSMACTS*100, p[2], r.CSMARTS*100, p[3])
		}
		b.WriteString(`</table>`)
		return nil
	})

	section("Figure 7 — BER per subcarrier under the same nulling precoder", func() error {
		f := testbed.RunFigure7(*seed)
		if len(f.BERCOPA) == 0 {
			b.WriteString("<p>(no illustrative topology found)</p>")
			return nil
		}
		ch := viz.Chart{Title: fmt.Sprintf("COPA %s %.1f Mb/s vs NoPA %s %.1f Mb/s",
			f.COPAMCS, f.COPAMbps, f.NoPAMCS, f.NoPAMbps),
			XLabel: "subcarrier", YLabel: "uncoded BER", LogY: true}
		copaS := viz.Series{Name: "COPA", Dots: true}
		nopaS := viz.Series{Name: "NoPA", Dots: true}
		for k := range f.BERCOPA {
			if !f.Dropped[k] && f.BERCOPA[k] > 1e-12 {
				copaS.X = append(copaS.X, float64(k))
				copaS.Y = append(copaS.Y, f.BERCOPA[k])
			}
			if f.BERNoPA[k] > 1e-12 {
				nopaS.X = append(nopaS.X, float64(k))
				nopaS.Y = append(nopaS.Y, f.BERNoPA[k])
			}
		}
		ch.Series = []viz.Series{copaS, nopaS}
		b.WriteString(ch.SVG())
		drops := 0
		for _, d := range f.Dropped {
			if d {
				drops++
			}
		}
		fmt.Fprintf(&b, "<p>COPA drops %d subcarriers (vertical gaps). Paper: 8 drops, 32.4 vs 12.6 Mb/s.</p>", drops)
		return nil
	})

	section("Figure 9 — topology scatter", func() error {
		f := testbed.RunFigure9(*seed, *topologies)
		ch := viz.Chart{Title: "Interference vs signal power", XLabel: "signal (dBm)", YLabel: "interference (dBm)"}
		ch.Series = []viz.Series{
			{Name: "clients", X: f.SignalDBm, Y: f.InterferenceDBm, Dots: true},
			{Name: "x = y", X: []float64{-70, -30}, Y: []float64{-70, -30}, Color: "#999"},
		}
		b.WriteString(ch.SVG())
		return nil
	})

	scenarioSection := func(title string, sc channel.Scenario, deltaDB float64, paper map[string]float64) func() error {
		return func() error {
			cfg := testbed.DefaultConfig(*seed)
			cfg.Topologies = *topologies
			cfg.InterferenceDeltaDB = deltaDB
			cfg.SkipCOPAPlus = *skipPlus
			res, err := testbed.RunScenario(context.Background(), sc, cfg)
			if err != nil {
				return err
			}
			ch := viz.Chart{Title: title, XLabel: "aggregate throughput (Mb/s)", YLabel: "CDF"}
			schemes := make([]string, 0, len(res.PerTopology))
			for s := range res.PerTopology {
				schemes = append(schemes, s)
			}
			sort.Strings(schemes)
			for _, scheme := range schemes {
				s := viz.Series{Name: scheme, Step: true}
				for _, pt := range testbed.CDF(res.PerTopology[scheme]) {
					s.X = append(s.X, pt.Value/1e6)
					s.Y = append(s.Y, pt.P)
				}
				ch.Series = append(ch.Series, s)
			}
			b.WriteString(ch.SVG())
			b.WriteString(`<table><tr><th>scheme</th><th>mean (Mb/s)</th><th class="paper">paper</th></tr>`)
			for _, scheme := range testbed.AllSchemes {
				vals, ok := res.PerTopology[scheme]
				if !ok {
					continue
				}
				ref := "—"
				if p, ok := paper[scheme]; ok {
					ref = fmt.Sprintf("%.1f", p)
				}
				fmt.Fprintf(&b, `<tr><td>%s</td><td>%.1f</td><td class="paper">%s</td></tr>`,
					scheme, testbed.Mean(vals)/1e6, ref)
			}
			b.WriteString(`</table>`)
			return nil
		}
	}

	section("Figure 10 — 1×1 scenario", scenarioSection("Throughput CDF, 1x1", channel.Scenario1x1, 0, map[string]float64{
		testbed.SchemeCSMA: 47.7, testbed.SchemeCOPASeq: 51.6,
		testbed.SchemeCOPAFair: 53.3, testbed.SchemeCOPA: 54.7,
		testbed.SchemeCOPAPF: 53.7, testbed.SchemeCOPAP: 55.0,
	}))
	section("Figure 11 — 4×2 constrained", scenarioSection("Throughput CDF, 4x2", channel.Scenario4x2, 0, map[string]float64{
		testbed.SchemeCSMA: 110.1, testbed.SchemeCOPASeq: 110.4, testbed.SchemeNull: 83.1,
		testbed.SchemeCOPAFair: 123.9, testbed.SchemeCOPA: 128.1,
		testbed.SchemeCOPAPF: 132.0, testbed.SchemeCOPAP: 136.2,
	}))
	section("Figure 12 — 4×2, interference −10 dB", scenarioSection("Throughput CDF, 4x2 weak interference", channel.Scenario4x2, -10, map[string]float64{
		testbed.SchemeCSMA: 110.1, testbed.SchemeCOPASeq: 110.4, testbed.SchemeNull: 131.7,
		testbed.SchemeCOPAFair: 175.8, testbed.SchemeCOPA: 178.8,
		testbed.SchemeCOPAPF: 184.4, testbed.SchemeCOPAP: 185.9,
	}))
	section("Figure 13 — 3×2 overconstrained", scenarioSection("Throughput CDF, 3x2", channel.Scenario3x2, 0, map[string]float64{
		testbed.SchemeCSMA: 104.1, testbed.SchemeCOPASeq: 108.9, testbed.SchemeNull: 87.4,
		testbed.SchemeCOPAFair: 117.8, testbed.SchemeCOPA: 121.6,
		testbed.SchemeCOPAPF: 122.9, testbed.SchemeCOPAP: 126.4,
	}))

	section("Figure 14 — multiple decoders", func() error {
		n := *topologies
		if n > 12 {
			n = 12 // two full scenario runs per antenna configuration
		}
		f, err := testbed.RunFigure14(context.Background(), *seed, n)
		if err != nil {
			return err
		}
		b.WriteString(`<table><tr><th>scheme</th><th>1×1</th><th>4×2</th><th>3×2</th></tr>`)
		for _, scheme := range testbed.Figure14Schemes {
			fmt.Fprintf(&b, `<tr><td>%s</td>`, scheme)
			for _, sc := range []string{"1x1", "4x2", "3x2"} {
				fmt.Fprintf(&b, `<td>%+.1f%%</td>`, f.Improvement[sc][scheme])
			}
			b.WriteString(`</tr>`)
		}
		b.WriteString(`</table><p>% improvement over 1-decoder CSMA.</p>`)
		return nil
	})

	fmt.Fprintf(&b, "<p><em>Generated %s.</em></p></body></html>", time.Now().UTC().Format(time.RFC3339))

	if failed {
		return 1
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		logger.Error("write report failed", "path", *out, "err", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%d KiB)\n", *out, len(b.String())/1024)
	return 0
}
