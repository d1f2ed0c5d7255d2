package drift

import (
	"math"
	"testing"
	"time"

	"copa/internal/channel"
	"copa/internal/precoding"
	"copa/internal/rng"
)

func TestStepRho(t *testing.T) {
	if r := StepRho(0, 0.01); r != 1 {
		t.Fatalf("speed 0 rho = %g, want exactly 1", r)
	}
	if r := StepRho(1.5, 0); r != 1 {
		t.Fatalf("dt 0 rho = %g, want exactly 1", r)
	}
	ped := StepRho(Pedestrian.SpeedMps, 0.005)
	if ped <= 0 || ped >= 1 {
		t.Fatalf("pedestrian 5ms rho = %g, want in (0,1)", ped)
	}
	veh := StepRho(Vehicular.SpeedMps, 0.005)
	if veh < 0 || veh >= ped {
		t.Fatalf("vehicular 5ms rho = %g, want in [0, %g)", veh, ped)
	}
	// Faster movement decorrelates more for small arguments.
	if StepRho(1.5, 0.001) <= StepRho(3.0, 0.001) {
		t.Fatal("rho should decrease with speed before the first J0 zero")
	}
	if DopplerHz(Vehicular.SpeedMps) <= DopplerHz(Pedestrian.SpeedMps) {
		t.Fatal("Doppler shift should grow with speed")
	}
}

func linksEqual(a, b *channel.Link) bool {
	if len(a.Subcarriers) != len(b.Subcarriers) {
		return false
	}
	for k := range a.Subcarriers {
		ma, mb := a.Subcarriers[k], b.Subcarriers[k]
		if ma.Rows != mb.Rows || ma.Cols != mb.Cols {
			return false
		}
		for i := range ma.Data {
			if ma.Data[i] != mb.Data[i] {
				return false
			}
		}
	}
	return true
}

func TestModelSpeedZeroIsByteIdentical(t *testing.T) {
	dep := channel.DeploymentAt(41, channel.Scenario4x2, 0)
	before := [2][2]*channel.Link{}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			before[i][j] = dep.H[i][j].Clone()
		}
	}
	m := NewModel(dep, 0, 7)
	for s := 0; s < 50; s++ {
		m.Advance(5 * time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !linksEqual(before[i][j], dep.H[i][j]) {
				t.Fatalf("speed 0 mutated H[%d][%d]", i, j)
			}
		}
	}
}

func TestModelDeterministicAndDrifting(t *testing.T) {
	mk := func() *Model {
		return NewModel(channel.DeploymentAt(42, channel.Scenario4x2, 0), Pedestrian.SpeedMps, 9)
	}
	a, b := mk(), mk()
	init := a.Dep.H[0][0].Clone()
	for s := 0; s < 20; s++ {
		a.Advance(5 * time.Millisecond)
		b.Advance(5 * time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !linksEqual(a.Dep.H[i][j], b.Dep.H[i][j]) {
				t.Fatalf("same-seed models diverged on H[%d][%d]", i, j)
			}
		}
	}
	if linksEqual(init, a.Dep.H[0][0]) {
		t.Fatal("pedestrian model did not move the channel")
	}
	// Gauss–Markov evolution preserves the large-scale statistics: the
	// mean gain should stay within a few dB of where it started.
	if d := math.Abs(averageGainDB(a.Dep.H[0][0]) - averageGainDB(init)); d > 6 {
		t.Fatalf("mean gain moved %0.1f dB over 100 ms of walking", d)
	}
}

func TestModelReassociateRedrawsBothLinks(t *testing.T) {
	m := NewModel(channel.DeploymentAt(43, channel.Scenario4x2, 0), 0, 11)
	keepH00 := m.Dep.H[0][0].Clone()
	old01 := m.Dep.H[0][1].Clone()
	old11 := m.Dep.H[1][1].Clone()
	gain01 := m.Dep.H[0][1].MeanGainLinear
	m.Reassociate(1)
	if linksEqual(old01, m.Dep.H[0][1]) || linksEqual(old11, m.Dep.H[1][1]) {
		t.Fatal("reassociation left a link toward client 1 unchanged")
	}
	if !linksEqual(keepH00, m.Dep.H[0][0]) {
		t.Fatal("reassociation of client 1 touched client 0's channel")
	}
	if m.Dep.H[0][1].MeanGainLinear != gain01 {
		t.Fatal("reassociation changed the large-scale gain")
	}
}

func TestTimelineDeterministicAndSorted(t *testing.T) {
	a := NewTimeline(5, 10*time.Second, 0.5, 0.1)
	b := NewTimeline(5, 10*time.Second, 0.5, 0.1)
	if len(a.Events) == 0 {
		t.Fatal("no events drawn at these rates")
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("same-seed timelines differ: %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
		if i > 0 && a.Events[i].At < a.Events[i-1].At {
			t.Fatal("timeline not sorted")
		}
	}
	if empty := NewTimeline(5, 10*time.Second, 0, 0); len(empty.Events) != 0 {
		t.Fatalf("rate-0 timeline has %d events", len(empty.Events))
	}
}

func TestTimelineDue(t *testing.T) {
	tl := Timeline{Events: []Event{
		{At: 10 * time.Millisecond},
		{At: 20 * time.Millisecond},
		{At: 30 * time.Millisecond},
	}}
	if got := tl.Due(10*time.Millisecond, 30*time.Millisecond); len(got) != 2 {
		t.Fatalf("Due(10,30] returned %d events, want 2 (exclusive lower bound)", len(got))
	}
	if got := tl.Due(0, 5*time.Millisecond); len(got) != 0 {
		t.Fatalf("Due(0,5] returned %d events, want 0", len(got))
	}
}

func TestDetectorBaselinesEstimationBias(t *testing.T) {
	d := Detector{ThresholdDB: 1}
	// Prediction runs on noisy CSI: a constant 2 dB optimism must not
	// trigger as long as it stays constant.
	pred, real := 100e6, 100e6/math.Pow(10, 0.2)
	d.Rebase(pred, real)
	if d.Drifted(pred, real) {
		t.Fatal("constant bias triggered the detector")
	}
	// The realized throughput sagging another 1.5 dB must trigger.
	if !d.Drifted(pred, real/math.Pow(10, 0.15)) {
		t.Fatal("1.5 dB excursion did not trigger at a 1 dB threshold")
	}
	if d.Excursion(pred, real) != 0 {
		t.Fatalf("excursion at the baseline = %g, want exactly 0", d.Excursion(pred, real))
	}
}

func TestNullResidualCertificate(t *testing.T) {
	src := rng.New(77)
	own := channel.NewLink(src.Split(1), 2, 4, channel.DBToLinear(-60))
	cross := channel.NewLink(src.Split(2), 2, 4, channel.DBToLinear(-65))
	p, err := precoding.Nulling(own, cross, 2)
	if err != nil {
		t.Fatal(err)
	}
	// On the CSI it was computed from, the plan nulls to numerical
	// precision.
	if res := NullResidualDB(cross, p); res > -100 {
		t.Fatalf("fresh nulling residual %0.1f dB, want < -100 dB", res)
	}
	// After heavy drift the certificate must be revoked at any sane
	// threshold.
	drifted := cross.Clone()
	drifted.EvolveRho(rng.New(3), 0.2)
	if res := NullResidualDB(drifted, p); res < -30 {
		t.Fatalf("residual after heavy drift %0.1f dB, want > -30 dB", res)
	}
}

// averageGainDB is a link's mean per-antenna-pair power gain in dB,
// averaged over subcarriers and antenna pairs.
func averageGainDB(l *channel.Link) float64 {
	var sum float64
	n := 0
	for _, h := range l.Subcarriers {
		for _, v := range h.Data {
			sum += real(v)*real(v) + imag(v)*imag(v)
			n++
		}
	}
	return channel.LinearToDB(sum / float64(n))
}
