package strategy

import (
	"math"
	"testing"

	"copa/internal/channel"
	"copa/internal/precoding"
	"copa/internal/rng"
)

func evaluatorFor(t *testing.T, seed int64, sc channel.Scenario) *Evaluator {
	t.Helper()
	src := rng.New(seed)
	dep := channel.NewDeployment(src.Split(1), sc)
	return NewEvaluator(dep, channel.DefaultImpairments(), src.Split(2))
}

func TestEvaluateCSMABasics(t *testing.T) {
	ev := evaluatorFor(t, 1, channel.Scenario4x2)
	o, err := ev.EvaluateCSMA()
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind != KindCSMA || o.Concurrent || o.SDA {
		t.Errorf("outcome flags: %+v", o)
	}
	// 4×2 sequential: aggregate bounded by 2×65 Mb/s halved, less
	// overhead — and strictly positive on a healthy topology.
	if o.Aggregate() <= 0 || o.Aggregate() > 130e6 {
		t.Errorf("aggregate = %.1f Mb/s", o.Aggregate()/1e6)
	}
}

func TestCOPASeqAtLeastCSMA(t *testing.T) {
	// COPA-SEQ starts from CSMA's configuration and only reallocates
	// power, so across topologies it should essentially never lose
	// (modulo CSI noise) — §4.2 says it always wins in their testbed.
	losses := 0
	for seed := int64(0); seed < 8; seed++ {
		ev := evaluatorFor(t, 10+seed, channel.Scenario4x2)
		csma, err := ev.EvaluateCSMA()
		if err != nil {
			t.Fatal(err)
		}
		seq, err := ev.EvaluateCOPASeq()
		if err != nil {
			t.Fatal(err)
		}
		// Compare PHY conditions only: same airtime model except the
		// ITS overhead, so require no catastrophic loss.
		if seq.Aggregate() < csma.Aggregate()*0.92 {
			losses++
		}
	}
	if losses > 1 {
		t.Errorf("COPA-SEQ materially lost to CSMA in %d/8 topologies", losses)
	}
}

func TestNullingInfeasibleFor1x1(t *testing.T) {
	ev := evaluatorFor(t, 3, channel.Scenario1x1)
	if _, err := ev.EvaluateNulling(KindNull); err == nil {
		t.Error("nulling should be infeasible for 1x1")
	}
	out, err := ev.EvaluateAll()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out[KindNull]; ok {
		t.Error("1x1 outcome set should not contain Null")
	}
	if _, ok := out[KindConcNull]; ok {
		t.Error("1x1 outcome set should not contain Conc-Null")
	}
	for _, k := range []Kind{KindCSMA, KindCOPASeq, KindConcBF} {
		if _, ok := out[k]; !ok {
			t.Errorf("1x1 missing %v", k)
		}
	}
}

func TestNulling4x2NoSDA(t *testing.T) {
	ev := evaluatorFor(t, 4, channel.Scenario4x2)
	o, err := ev.EvaluateNulling(KindConcNull)
	if err != nil {
		t.Fatal(err)
	}
	if o.SDA {
		t.Error("4x2 is fully constrained; no SDA expected")
	}
	if !o.Concurrent {
		t.Error("nulling outcome must be concurrent")
	}
}

func TestNulling3x2UsesSDA(t *testing.T) {
	ev := evaluatorFor(t, 5, channel.Scenario3x2)
	o, err := ev.EvaluateNulling(KindNull)
	if err != nil {
		t.Fatal(err)
	}
	if !o.SDA {
		t.Error("3x2 should trigger shut-down-antenna")
	}
	if o.Aggregate() < 0 {
		t.Error("negative aggregate")
	}
}

func TestEvaluateAll4x2HasEverything(t *testing.T) {
	ev := evaluatorFor(t, 6, channel.Scenario4x2)
	out, err := ev.EvaluateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kind{KindCSMA, KindCOPASeq, KindNull, KindConcBF, KindConcNull} {
		if _, ok := out[k]; !ok {
			t.Errorf("missing %v", k)
		}
	}
}

func TestSelectMaxPicksAggregateWinner(t *testing.T) {
	outs := map[Kind]Outcome{
		KindCOPASeq:  {Kind: KindCOPASeq, PerClient: [2]float64{30e6, 30e6}, Predicted: [2]float64{30e6, 30e6}},
		KindConcNull: {Kind: KindConcNull, Concurrent: true, PerClient: [2]float64{80e6, 10e6}, Predicted: [2]float64{80e6, 10e6}},
	}
	got := Select(ModeMax, outs)
	if got.Kind != KindConcNull {
		t.Errorf("max mode picked %v", got.Kind)
	}
}

func TestSelectFairRejectsLosers(t *testing.T) {
	outs := map[Kind]Outcome{
		KindCOPASeq:  {Kind: KindCOPASeq, PerClient: [2]float64{30e6, 30e6}, Predicted: [2]float64{30e6, 30e6}},
		KindConcNull: {Kind: KindConcNull, Concurrent: true, PerClient: [2]float64{80e6, 10e6}, Predicted: [2]float64{80e6, 10e6}},
	}
	got := Select(ModeFair, outs)
	if got.Kind != KindCOPASeq {
		t.Errorf("fair mode picked %v despite client 1 losing", got.Kind)
	}
	// If nobody loses, fair mode embraces concurrency.
	outs[KindConcNull] = Outcome{Kind: KindConcNull, Concurrent: true,
		PerClient: [2]float64{50e6, 35e6}, Predicted: [2]float64{50e6, 35e6}}
	got = Select(ModeFair, outs)
	if got.Kind != KindConcNull {
		t.Errorf("fair mode rejected a win-win: %v", got.Kind)
	}
}

func TestSelectFairNeverBelowSeq(t *testing.T) {
	// Property over real evaluations: the fair choice never predicts a
	// client below its COPA-SEQ throughput.
	for seed := int64(0); seed < 6; seed++ {
		ev := evaluatorFor(t, 40+seed, channel.Scenario4x2)
		outs, err := ev.EvaluateAll()
		if err != nil {
			t.Fatal(err)
		}
		choice := Select(ModeFair, outs)
		seq := outs[KindCOPASeq]
		for j := 0; j < 2; j++ {
			if choice.Predicted[j] < seq.Predicted[j]-1 {
				t.Errorf("seed %d: fair choice predicts client %d at %.1f < seq %.1f Mb/s",
					seed, j, choice.Predicted[j]/1e6, seq.Predicted[j]/1e6)
			}
		}
	}
}

func TestSelectMaxAtLeastFair(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		ev := evaluatorFor(t, 60+seed, channel.Scenario4x2)
		outs, err := ev.EvaluateAll()
		if err != nil {
			t.Fatal(err)
		}
		max := Select(ModeMax, outs)
		fair := Select(ModeFair, outs)
		if max.PredictedAggregate() < fair.PredictedAggregate()-1 {
			t.Errorf("seed %d: max %.1f < fair %.1f Mb/s", seed,
				max.PredictedAggregate()/1e6, fair.PredictedAggregate()/1e6)
		}
	}
}

func TestMultiDecoderAtLeastSingle(t *testing.T) {
	ev := evaluatorFor(t, 7, channel.Scenario4x2)
	single, err := ev.EvaluateCSMA()
	if err != nil {
		t.Fatal(err)
	}
	ev.MultiDecoder = true
	multi, err := ev.EvaluateCSMA()
	if err != nil {
		t.Fatal(err)
	}
	if multi.Aggregate() < single.Aggregate()*0.98 {
		t.Errorf("multi-decoder %.1f < single %.1f Mb/s",
			multi.Aggregate()/1e6, single.Aggregate()/1e6)
	}
}

func TestOutcomeHelpers(t *testing.T) {
	o := Outcome{PerClient: [2]float64{1, 2}, Predicted: [2]float64{3, 4}}
	if o.Aggregate() != 3 || o.PredictedAggregate() != 7 {
		t.Error("aggregate helpers wrong")
	}
	if effective(100, 0.5, 0.1) >= 50 {
		t.Error("effective must subtract overhead")
	}
	if effective(100, 1, 2) != 0 {
		t.Error("effective must clamp at zero")
	}
	if math.Signbit(effective(0, 1, 0)) {
		t.Error("effective(0) should be +0")
	}
}

func TestKindModeStrings(t *testing.T) {
	if KindCSMA.String() != "CSMA" || KindConcNull.String() != "Conc-Null" {
		t.Error("kind strings")
	}
	if ModeFair.String() != "fair" || ModeMax.String() != "max" {
		t.Error("mode strings")
	}
}

func TestNewEvaluatorFromCSIAndMeasure(t *testing.T) {
	// The protocol path: an evaluator built from estimates only, whose
	// Predicted and PerClient coincide, then re-measured on a real
	// deployment.
	src := rng.New(81)
	dep := channel.NewDeployment(src.Split(1), channel.Scenario4x2)
	imp := channel.DefaultImpairments()
	var est [2][2]*channel.Link
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			est[i][j] = imp.EstimateCSI(src.Split(uint64(10+i*2+j)), dep.H[i][j])
		}
	}
	ev := NewEvaluatorFromCSI(channel.Scenario4x2, est, imp)
	out, err := ev.EvaluateCSMA()
	if err != nil {
		t.Fatal(err)
	}
	if out.Aggregate() <= 0 {
		t.Error("no throughput")
	}
	tx0, tx1, err := ev.TransmissionsFor(out)
	if err != nil {
		t.Fatal(err)
	}
	measured := ev.MeasureOnDeployment(dep, [2]*precoding.Transmission{tx0, tx1}, false, 0.03)
	if measured[0] <= 0 || measured[1] <= 0 {
		t.Errorf("measured = %v", measured)
	}
}

func TestEvaluateCSMADirectMapWorseOrEqual(t *testing.T) {
	ev := evaluatorFor(t, 91, channel.Scenario4x2)
	bf, err := ev.EvaluateCSMA()
	if err != nil {
		t.Fatal(err)
	}
	dm, err := ev.EvaluateCSMADirectMap()
	if err != nil {
		t.Fatal(err)
	}
	if dm.Aggregate() > bf.Aggregate()*1.05 {
		t.Errorf("direct map (%.1f) should not beat beamforming (%.1f)",
			dm.Aggregate()/1e6, bf.Aggregate()/1e6)
	}
}

func TestKindStringsComplete(t *testing.T) {
	for _, k := range []Kind{KindCSMA, KindCOPASeq, KindNull, KindConcBF, KindConcNull} {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Errorf("kind %d string %q", int(k), s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind fallback")
	}
	if Mode(9).String() != "max" {
		t.Error("unknown mode should read as max")
	}
}

// MeasureOnDeployment measures the effective per-client throughputs a pair
// of transmissions achieves on a ground-truth deployment, with the given
// airtime model. Used to score protocol-negotiated transmissions after
// the fact.
func (ev *Evaluator) MeasureOnDeployment(dep *channel.Deployment, tx [2]*precoding.Transmission, concurrent bool, schemeOverhead float64) [2]float64 {
	l := links{{dep.H[0][0], dep.H[0][1]}, {dep.H[1][0], dep.H[1][1]}}
	return ev.pairThroughputs(l, tx, concurrent, schemeOverhead, false)
}
