package testbed

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"copa/internal/channel"
	"copa/internal/ofdm"
	"copa/internal/strategy"
)

func TestStats(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Mean(xs) != 2.5 {
		t.Errorf("mean %g", Mean(xs))
	}
	if Median(xs) != 2.5 {
		t.Errorf("median %g", Median(xs))
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 4 {
		t.Error("extreme percentiles")
	}
	if p := Percentile(xs, 50); math.Abs(p-2.5) > 1e-12 {
		t.Errorf("p50 = %g", p)
	}
	if Mean(nil) != 0 || Median(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty-input stats should be 0")
	}
	sd := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(sd-2) > 1e-12 {
		t.Errorf("stddev %g, want 2", sd)
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatal("CDF length")
	}
	if pts[0].Value != 1 || pts[2].Value != 3 {
		t.Error("CDF not sorted")
	}
	if math.Abs(pts[2].P-1) > 1e-12 || math.Abs(pts[0].P-1.0/3) > 1e-12 {
		t.Errorf("CDF probabilities: %v", pts)
	}
}

func TestQuickPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		xs := make([]float64, 20)
		x := float64(seed%97) + 1
		for i := range xs {
			x = math.Mod(x*1.7+3, 100)
			xs[i] = x
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(xs, p)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRunScenarioSmoke4x2(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Topologies = 6
	cfg.SkipCOPAPlus = true
	res, err := RunScenario(context.Background(), channel.Scenario4x2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{SchemeCSMA, SchemeCOPASeq, SchemeNull, SchemeCOPA, SchemeCOPAFair} {
		vals := res.PerTopology[scheme]
		if len(vals) != 6 {
			t.Fatalf("%s has %d values", scheme, len(vals))
		}
		for _, v := range vals {
			if v < 0 || v > 600e6 {
				t.Fatalf("%s throughput %g implausible", scheme, v)
			}
		}
	}
	// COPA (max mode) must never fall below COPA-SEQ on predictions, so
	// on aggregate means it should at least match the baseline closely.
	if res.MeanMbps(SchemeCOPA) < res.MeanMbps(SchemeCOPASeq)*0.95 {
		t.Errorf("COPA %.1f << COPA-SEQ %.1f", res.MeanMbps(SchemeCOPA), res.MeanMbps(SchemeCOPASeq))
	}
}

func TestRunScenarioCancelled(t *testing.T) {
	// Already-cancelled context: the run must abort with ctx.Err()
	// without evaluating the population.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig(3)
	cfg.Topologies = 64
	cfg.SkipCOPAPlus = true
	start := time.Now()
	if _, err := RunScenario(ctx, channel.Scenario4x2, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// 64 4x2 topologies take tens of seconds; an aborted run must not.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled run still took %v", elapsed)
	}

	// Deadline mid-run: same contract via the other cancellation path.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer dcancel()
	<-dctx.Done()
	if _, err := RunScenario(dctx, channel.Scenario4x2, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.Topologies = 3
	cfg.SkipCOPAPlus = true
	a, err := RunScenario(context.Background(), channel.Scenario1x1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(context.Background(), channel.Scenario1x1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for scheme, vals := range a.PerTopology {
		for i, v := range vals {
			if b.PerTopology[scheme][i] != v {
				t.Fatalf("%s[%d] differs between identical runs", scheme, i)
			}
		}
	}
}

func TestRunScenario1x1HasNoNulling(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Topologies = 3
	cfg.SkipCOPAPlus = true
	res, err := RunScenario(context.Background(), channel.Scenario1x1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.PerTopology[SchemeNull]; ok {
		t.Error("1x1 must not produce a Null column")
	}
}

func TestHeadlinesMath(t *testing.T) {
	r := &ScenarioResult{PerTopology: map[string][]float64{
		SchemeCSMA:     {100, 100, 100, 100},
		SchemeNull:     {50, 80, 120, 150},  // loses on 2, wins on 2
		SchemeCOPA:     {110, 90, 130, 160}, // beats CSMA on 1 of the 2 losers
		SchemeCOPAFair: {100, 90, 120, 150},
	}}
	hs := Headlines(r)
	if hs.NullLosesToCSMA != 0.5 {
		t.Errorf("lose fraction %g", hs.NullLosesToCSMA)
	}
	if hs.COPABeatsCSMAWhereNullLoses != 0.5 {
		t.Errorf("beat fraction %g", hs.COPABeatsCSMAWhereNullLoses)
	}
	// COPA over Null where null loses: mean(110/50−1, 90/80−1) = mean(1.2, .125)
	want := (1.2 + 0.125) / 2
	if math.Abs(hs.COPAOverNullWhereNullLoses-want) > 1e-12 {
		t.Errorf("gain %g want %g", hs.COPAOverNullWhereNullLoses, want)
	}
	// Null win median where it wins: median(0.2, 0.5) = 0.35.
	if math.Abs(hs.NullWinMedian-0.35) > 1e-12 {
		t.Errorf("null win median %g", hs.NullWinMedian)
	}
	if hs.PriceOfFairness <= 0 {
		t.Errorf("price of fairness %g, want positive here", hs.PriceOfFairness)
	}
	// Without a Null column the stats are zero-valued, not a panic.
	empty := Headlines(&ScenarioResult{PerTopology: map[string][]float64{}})
	if empty.NullLosesToCSMA != 0 {
		t.Error("empty headlines should be zero")
	}
}

func TestFigure2Shape(t *testing.T) {
	f := RunFigure2(1)
	for a := 0; a < 2; a++ {
		if len(f.PowerDBm[a]) != ofdm.NumSubcarriers {
			t.Fatalf("antenna %d has %d subcarriers", a, len(f.PowerDBm[a]))
		}
	}
	// Narrow-band fading must be visible (Fig. 2 shows ≳15 dB swings).
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range f.PowerDBm[0] {
		min, max = math.Min(min, v), math.Max(max, v)
	}
	if max-min < 6 {
		t.Errorf("fading spread %.1f dB too flat", max-min)
	}
	// Powers are in a plausible indoor receive range.
	if max > -20 || min < -120 {
		t.Errorf("power range [%.1f, %.1f] dBm implausible", min, max)
	}
}

func TestFigure3Calibration(t *testing.T) {
	f := RunFigure3(1, 12)
	// The paper's Fig. 3: INR reduction ≈ −27 dB, SNR reduction negative
	// but smaller, SINR increase positive.
	if f.INRReductionMeanDB > -20 || f.INRReductionMeanDB < -35 {
		t.Errorf("INR reduction %.1f dB, want ≈ −27", f.INRReductionMeanDB)
	}
	if f.SNRReductionMeanDB >= 0 || f.SNRReductionMeanDB < -15 {
		t.Errorf("SNR reduction %.1f dB, want moderately negative", f.SNRReductionMeanDB)
	}
	if f.SINRIncreaseMeanDB <= 0 {
		t.Errorf("SINR increase %.1f dB, want positive", f.SINRIncreaseMeanDB)
	}
	// Ordering: the SINR gain is smaller than the INR reduction because
	// of collateral damage.
	if -f.INRReductionMeanDB < f.SINRIncreaseMeanDB {
		t.Error("SINR increase cannot exceed INR reduction")
	}
}

func TestFigure4Shape(t *testing.T) {
	f := RunFigure4(1)
	if len(f.SNRBFDB) != ofdm.NumSubcarriers {
		t.Fatal("wrong subcarrier count")
	}
	// Nulling costs SNR on average and concurrent SINR is below solo SNR.
	if Mean(f.SNRNullDB) >= Mean(f.SNRBFDB) {
		t.Error("nulling should reduce own-signal SNR")
	}
	if Mean(f.SINRNullDB) > Mean(f.SNRNullDB)+1e-9 {
		t.Error("interference cannot raise SINR above SNR")
	}
	// Nulling increases variability across subcarriers (the paper's core
	// observation).
	if StdDev(f.SINRNullDB) < StdDev(f.SNRBFDB) {
		t.Errorf("nulling should increase SINR variance: BF σ=%.1f, null σ=%.1f",
			StdDev(f.SNRBFDB), StdDev(f.SINRNullDB))
	}
}

func TestFigure7COPAWins(t *testing.T) {
	f := RunFigure7(1)
	if len(f.BERCOPA) == 0 {
		t.Skip("nulling infeasible on this seed")
	}
	if f.COPAMbps <= f.NoPAMbps {
		t.Errorf("COPA %.1f ≤ NoPA %.1f Mb/s; power allocation should win", f.COPAMbps, f.NoPAMbps)
	}
	drops := 0
	for _, d := range f.Dropped {
		if d {
			drops++
		}
	}
	if drops == 0 {
		t.Error("expected COPA to drop at least one subcarrier on a nulled concurrent link")
	}
	if f.COPAMCS.Index <= f.NoPAMCS.Index {
		t.Errorf("COPA should reach a higher bitrate: %v vs %v", f.COPAMCS, f.NoPAMCS)
	}
}

func TestFigure9Envelope(t *testing.T) {
	f := RunFigure9(1, 30)
	if len(f.SignalDBm) != 60 {
		t.Fatalf("%d points, want 60", len(f.SignalDBm))
	}
	below := 0
	for i := range f.SignalDBm {
		if f.SignalDBm[i] < -70 || f.SignalDBm[i] > -30 {
			t.Errorf("signal %.1f dBm out of Fig. 9's range", f.SignalDBm[i])
		}
		if f.InterferenceDBm[i] < f.SignalDBm[i] {
			below++
		}
	}
	frac := float64(below) / float64(len(f.SignalDBm))
	if frac < 0.6 || frac > 0.99 {
		t.Errorf("interference below signal at %.0f%%; want usually but not always", frac*100)
	}
}

func TestTable1RowCount(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Paper's qualitative content: COPA costs more than CSMA, overheads
	// shrink with coherence time.
	for _, r := range rows {
		if r.COPAConc <= r.CSMACTS || r.COPASeq <= r.CSMACTS {
			t.Error("COPA overhead should exceed CSMA's")
		}
	}
	if rows[0].COPAConc <= rows[2].COPAConc {
		t.Error("overhead should fall with longer coherence")
	}
}

func TestFigure14MultiDecoderHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	f, err := RunFigure14(context.Background(), 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []string{"1x1", "4x2", "3x2"} {
		m := f.Improvement[sc]
		if len(m) != len(Figure14Schemes) {
			t.Fatalf("%s has %d schemes", sc, len(m))
		}
		// N decoders can only help a scheme relative to its 1-decoder
		// self (allow small sampling noise).
		if m["COPA N decoders"] < m["COPA 1 decoder"]-3 {
			t.Errorf("%s: N-decoder COPA %+.1f%% below 1-decoder %+.1f%%",
				sc, m["COPA N decoders"], m["COPA 1 decoder"])
		}
		if m["CSMA N decoders"] < -3 {
			t.Errorf("%s: multi-decoder CSMA fell below CSMA: %+.1f%%", sc, m["CSMA N decoders"])
		}
	}
}

func BenchmarkTopologyPipeline4x2(b *testing.B) {
	cfg := DefaultConfig(1)
	cfg.Topologies = 1
	cfg.SkipCOPAPlus = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := RunScenario(context.Background(), channel.Scenario4x2, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPredictionAccuracy(t *testing.T) {
	acc, err := RunPredictionAccuracy(context.Background(), 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential strategies predict well (no concurrent interference to
	// misjudge); concurrent nulling is the hard one (§3.3).
	seqMAE := acc.MAEByKind[strategy.KindCOPASeq]
	nullMAE := acc.MAEByKind[strategy.KindConcNull]
	if seqMAE > 0.25 {
		t.Errorf("COPA-SEQ prediction MAE %.2f too large", seqMAE)
	}
	if nullMAE < seqMAE {
		t.Errorf("concurrent nulling (%.2f) should be harder to predict than sequential (%.2f)",
			nullMAE, seqMAE)
	}
	if acc.MispickRate < 0 || acc.MispickRate > 1 {
		t.Errorf("mispick rate %g", acc.MispickRate)
	}
	t.Logf("MAE seq=%.2f null=%.2f, mispicks %.0f%% costing %.0f%%",
		seqMAE, nullMAE, acc.MispickRate*100, acc.MispickCostMean*100)
}

func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := DefaultConfig(1)
	cfg.Topologies = 8
	cfg.SkipCOPAPlus = true
	rob, err := RunSeedRobustness(context.Background(), channel.Scenario4x2, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The central ordering must hold for every seed batch on average,
	// and the spread must be small relative to the effect size.
	copa := rob.MeanOfMeans[SchemeCOPA]
	csma := rob.MeanOfMeans[SchemeCSMA]
	null := rob.MeanOfMeans[SchemeNull]
	if !(copa > csma && csma > null) {
		t.Errorf("ordering unstable across seeds: COPA %.1f, CSMA %.1f, Null %.1f Mb/s",
			copa/1e6, csma/1e6, null/1e6)
	}
	if rob.StdOfMeans[SchemeCOPA] > 0.25*copa {
		t.Errorf("COPA mean varies %.1f%% across seeds", rob.StdOfMeans[SchemeCOPA]/copa*100)
	}
}

func TestWeakInterferenceShrinksFairnessGap(t *testing.T) {
	// §4.4: "There is little difference between COPA and COPA Fair
	// because both clients normally win from running COPA" once
	// interference is 10 dB weaker. Verify the fair/max gap shrinks (or
	// stays negligible) relative to the strong-interference case.
	cfg := DefaultConfig(11)
	cfg.Topologies = 10
	cfg.SkipCOPAPlus = true
	strong, err := RunScenario(context.Background(), channel.Scenario4x2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.InterferenceDeltaDB = -10
	weak, err := RunScenario(context.Background(), channel.Scenario4x2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gap := func(r *ScenarioResult) float64 {
		return Mean(r.PerTopology[SchemeCOPA]) - Mean(r.PerTopology[SchemeCOPAFair])
	}
	gs, gw := gap(strong), gap(weak)
	t.Logf("fair/max gap: strong %.1f Mb/s, weak %.1f Mb/s", gs/1e6, gw/1e6)
	if gw > gs+2e6 {
		t.Errorf("weak interference should not widen the fairness gap: %.1f vs %.1f Mb/s",
			gw/1e6, gs/1e6)
	}
	// And COPA's gains grow with weaker interference (Fig. 12 vs 11).
	if Mean(weak.PerTopology[SchemeCOPA]) <= Mean(strong.PerTopology[SchemeCOPA]) {
		t.Error("COPA should gain from weaker interference")
	}
	if Mean(weak.PerTopology[SchemeNull]) <= Mean(strong.PerTopology[SchemeNull]) {
		t.Error("vanilla nulling should gain from weaker interference")
	}
}

func TestPerfectHardwareMakesNullingDominant(t *testing.T) {
	// With ideal radios (no CSI error, no staleness, no EVM), nulling is
	// exact and concurrent transmission should essentially always win —
	// the regime prior work assumed and §2.2 argues does not exist in
	// practice.
	cfg := DefaultConfig(13)
	cfg.Topologies = 8
	cfg.SkipCOPAPlus = true
	cfg.Impairments = channel.PerfectHardware()
	res, err := RunScenario(context.Background(), channel.Scenario4x2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nullWins := 0
	for i := range res.PerTopology[SchemeNull] {
		if res.PerTopology[SchemeNull][i] > res.PerTopology[SchemeCSMA][i] {
			nullWins++
		}
	}
	if frac := float64(nullWins) / float64(cfg.Topologies); frac < 0.7 {
		t.Errorf("with perfect hardware vanilla nulling won only %.0f%% of topologies", frac*100)
	}
	if Mean(res.PerTopology[SchemeCOPA]) < Mean(res.PerTopology[SchemeCSMA])*1.3 {
		t.Errorf("perfect-hardware COPA should crush CSMA: %.1f vs %.1f Mb/s",
			res.MeanMbps(SchemeCOPA), res.MeanMbps(SchemeCSMA))
	}
}

// MeanMbps returns a scheme's mean aggregate throughput in Mb/s.
func (r *ScenarioResult) MeanMbps(scheme string) float64 {
	return Mean(r.PerTopology[scheme]) / 1e6
}
