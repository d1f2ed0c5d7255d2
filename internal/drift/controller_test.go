package drift

import (
	"testing"
	"time"

	"copa/internal/channel"
	"copa/internal/core"
	"copa/internal/power"
	"copa/internal/precoding"
	"copa/internal/rng"
	"copa/internal/strategy"
)

func txEqual(a, b *precoding.Transmission) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.PowerMW) != len(b.PowerMW) {
		return false
	}
	for k := range a.PowerMW {
		if len(a.PowerMW[k]) != len(b.PowerMW[k]) {
			return false
		}
		for s := range a.PowerMW[k] {
			if a.PowerMW[k][s] != b.PowerMW[k][s] {
				return false
			}
		}
	}
	pa, pb := a.Precoder.PerSubcarrier, b.Precoder.PerSubcarrier
	if len(pa) != len(pb) {
		return false
	}
	for k := range pa {
		for i := range pa[k].Data {
			if pa[k].Data[i] != pb[k].Data[i] {
				return false
			}
		}
	}
	return true
}

// TestControllerSpeedZeroNeverRenegotiates is the acceptance criterion:
// at speed 0 with no events the controller performs exactly the initial
// exchange and never again — and its transmissions are byte-identical
// to what the static (non-drift) path computes on the same pair.
func TestControllerSpeedZeroNeverRenegotiates(t *testing.T) {
	const seed = 21
	cfg := DefaultConfig()
	cfg.SpeedMps = 0
	cfg.Seed = seed

	dep := channel.DeploymentAt(seed, channel.Scenario4x2, 0)
	ctl := NewController(dep, 400*time.Millisecond, cfg)
	stats, err := ctl.Run(400 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Renegotiations != 0 || stats.Incremental != 0 || stats.CertRevocations != 0 {
		t.Fatalf("speed 0 re-allocated: %+v", *stats)
	}
	if stats.Exchanges != 1 {
		t.Fatalf("speed 0 ran %d exchanges, want exactly the initial one", stats.Exchanges)
	}
	if stats.Events != 0 {
		t.Fatalf("rate-0 timeline produced %d events", stats.Events)
	}

	// The static path: a plain pair on an identical deployment, one
	// exchange, no controller. Same seed path ⇒ same CSI noise, same
	// leader election, same allocation — byte-identical transmissions.
	dep2 := channel.DeploymentAt(seed, channel.Scenario4x2, 0)
	pair := core.NewPair(dep2, cfg.Impairments, strategy.DefaultCoherence, cfg.Mode, rng.NewSub(seed, 0xd21f))
	pair.MeasureCSI()
	s, err := pair.RunExchange(cfg.AirtimeUS)
	if err != nil {
		t.Fatal(err)
	}
	got := ctl.Transmissions()
	for i := 0; i < 2; i++ {
		if !txEqual(got[i], s.Tx[i]) {
			t.Fatalf("controller Tx[%d] differs from the static path", i)
		}
	}
}

// TestControllerDeterministicAcrossRuns: two identically-seeded runs at
// vehicular speed with events enabled must agree on every statistic —
// the CI drift-smoke job's second assertion.
func TestControllerDeterministicAcrossRuns(t *testing.T) {
	run := func() Stats {
		cfg := DefaultConfig()
		cfg.SpeedMps = Vehicular.SpeedMps
		cfg.Seed = 33
		cfg.ReassocPerSec = 10
		cfg.ChurnPerSec = 5
		dep := channel.DeploymentAt(33, channel.Scenario4x2, 0)
		ctl := NewController(dep, 150*time.Millisecond, cfg)
		stats, err := ctl.Run(150 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return *stats
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identically-seeded runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Events == 0 {
		t.Fatal("event timeline never fired at these rates")
	}
}

// TestControllerMobilityTriggersReallocation: at pedestrian speed the
// channels drift, so the controller must re-allocate at least once and
// keep the realized throughput positive.
func TestControllerMobilityTriggersReallocation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpeedMps = Pedestrian.SpeedMps
	cfg.Seed = 55
	cfg.ThresholdDB = 0.5
	dep := channel.DeploymentAt(55, channel.Scenario4x2, 0)
	ctl := NewController(dep, 400*time.Millisecond, cfg)
	stats, err := ctl.Run(400 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Incremental+stats.Renegotiations == 0 {
		t.Fatalf("walking for 400 ms never re-allocated: %+v", *stats)
	}
	if stats.MeanAggregate() <= 0 {
		t.Fatal("no realized throughput")
	}
}

// TestIncrementalTracksFromScratch: every incremental re-allocation
// must land within tolerance of the cold from-scratch 12-sweep solve on
// the exact same sender CSI (same precoders, same measurements). The
// incremental solve follows the identical trajectory (drop-level hints
// are bit-identical) but stops early once the best-so-far stops
// improving (Patience 2), so it can miss rare late-peak instances; the
// documented tolerance (DESIGN §14) is 20% per epoch worst-case and 5%
// on average across epochs.
func TestIncrementalTracksFromScratch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpeedMps = Pedestrian.SpeedMps
	cfg.Seed = 91
	cfg.ThresholdDB = 0.5
	dep := channel.DeploymentAt(91, channel.Scenario4x2, 0)
	ctl := NewController(dep, time.Second, cfg)

	checked := 0
	relSum := 0.0
	ctl.onIncremental = func(senders [2]power.SenderCSI, res *power.Result) {
		pcfg := power.DefaultConfig()
		pcfg.Impairments = cfg.Impairments
		cold := power.Concurrent(senders, pcfg)
		warmAgg, coldAgg := res.Aggregate(), cold.Aggregate()
		if coldAgg <= 0 {
			return
		}
		rel := (coldAgg - warmAgg) / coldAgg
		if rel > 0.20 {
			t.Errorf("incremental aggregate %0.3g vs cold %0.3g: %.2f%% off (worst-case tolerance 20%%)",
				warmAgg, coldAgg, rel*100)
		}
		relSum += rel
		checked++
	}
	for ctl.Stats().Elapsed < time.Second && checked < 3 {
		if err := ctl.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 {
		t.Skip("no incremental re-allocation occurred in 1 s at pedestrian speed")
	}
	if mean := relSum / float64(checked); mean > 0.05 {
		t.Errorf("mean incremental shortfall %.2f%% across %d epochs (tolerance 5%%)", mean*100, checked)
	}
}

// TestControllerChurnForcesFullExchange: AP churn invalidates every
// cached plan, so the next re-allocation must be a full exchange even
// when the channel barely moved.
func TestControllerChurnForcesFullExchange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpeedMps = 0
	cfg.Seed = 13
	cfg.ChurnPerSec = 20 // several churns in a short run
	dep := channel.DeploymentAt(13, channel.Scenario4x2, 0)
	ctl := NewController(dep, 500*time.Millisecond, cfg)
	stats, err := ctl.Run(500 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events == 0 {
		t.Fatal("churn timeline never fired")
	}
	if stats.Renegotiations == 0 {
		t.Fatal("churn events did not force renegotiation")
	}
	if stats.Incremental != 0 {
		t.Fatalf("static channel performed %d incremental re-allocations", stats.Incremental)
	}
}

// Transmissions returns the pair's current transmissions (nil entries
// while in CSMA fallback).
func (c *Controller) Transmissions() [2]*precoding.Transmission { return c.tx }
