package core

import (
	"testing"
	"time"

	"copa/internal/channel"
	"copa/internal/rng"
	"copa/internal/strategy"
)

func newTestCluster(t *testing.T, seed int64, pairs int, deference bool) *Cluster {
	t.Helper()
	src := rng.New(seed)
	dep, err := channel.NewMultiDeployment(src.Split(1), channel.Scenario4x2, pairs)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(dep, channel.DefaultImpairments(), 30*time.Millisecond, strategy.ModeFair, src.Split(2))
	c.Deference = deference
	return c
}

func TestMultiDeploymentShape(t *testing.T) {
	src := rng.New(1)
	dep, err := channel.NewMultiDeployment(src, channel.Scenario4x2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Pairs != 3 || len(dep.H) != 3 || len(dep.H[0]) != 3 {
		t.Fatal("wrong shape")
	}
	for i := 0; i < 3; i++ {
		if dep.SignalDBm[i] < -70 || dep.SignalDBm[i] > -30 {
			t.Errorf("pair %d signal %.1f dBm out of range", i, dep.SignalDBm[i])
		}
		for j := 0; j < 3; j++ {
			if dep.H[i][j].NRx() != 2 || dep.H[i][j].NTx() != 4 {
				t.Fatal("link shape wrong")
			}
		}
	}
	if _, err := channel.NewMultiDeployment(rng.New(2), channel.Scenario4x2, 1); err == nil {
		t.Error("single-pair multi-deployment should be rejected")
	}
}

func TestClusterRound(t *testing.T) {
	c := newTestCluster(t, 3, 3, false)
	c.MeasureCSI()
	res, err := c.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader < 0 || res.Leader > 2 || res.Follower == res.Leader {
		t.Errorf("leader %d follower %d", res.Leader, res.Follower)
	}
	if res.TXOPs != 1 && res.TXOPs != 2 {
		t.Errorf("TXOPs %d", res.TXOPs)
	}
	var total float64
	for _, tp := range res.TputBps {
		total += tp
	}
	if total <= 0 {
		t.Error("round produced no throughput")
	}
}

func TestClusterRoundsAccounting(t *testing.T) {
	c := newTestCluster(t, 5, 3, false)
	stats, err := c.RunRounds(12)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 12 {
		t.Errorf("rounds %d", stats.Rounds)
	}
	var share float64
	for i, s := range stats.AirtimeShare {
		if s < 0 || s > 1 {
			t.Errorf("share[%d] = %g", i, s)
		}
		share += s
	}
	// Concurrent rounds give airtime to two pairs at once, so the sum of
	// shares lies in [1, 2].
	if share < 0.99 || share > 2.01 {
		t.Errorf("share sum %g", share)
	}
	if stats.JainIndex <= 0 || stats.JainIndex > 1.0001 {
		t.Errorf("Jain %g", stats.JainIndex)
	}
	if stats.ConcurrentFraction < 0 || stats.ConcurrentFraction > 1 {
		t.Errorf("concurrent fraction %g", stats.ConcurrentFraction)
	}
}

func TestClusterDeterministic(t *testing.T) {
	a, err := newTestCluster(t, 7, 3, false).RunRounds(6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newTestCluster(t, 7, 3, false).RunRounds(6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.MeanTputBps {
		if a.MeanTputBps[i] != b.MeanTputBps[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestClusterDeferenceHelpsOutsiders(t *testing.T) {
	// With pairwise sequential verdicts, the §3.1 deference should raise
	// the minimum airtime share (or at least not lower it) across seeds.
	var minBase, minDefer float64
	runs := 0
	for seed := int64(0); seed < 2; seed++ {
		base, err := newTestCluster(t, 20+seed, 3, false).RunRounds(12)
		if err != nil {
			t.Fatal(err)
		}
		fixed, err := newTestCluster(t, 20+seed, 3, true).RunRounds(12)
		if err != nil {
			t.Fatal(err)
		}
		minBase += minOf(base.AirtimeShare)
		minDefer += minOf(fixed.AirtimeShare)
		runs++
	}
	if minDefer < minBase*0.9 {
		t.Errorf("deference materially hurt outsiders: %.3f vs %.3f", minDefer, minBase)
	}
	t.Logf("mean min-share: base %.3f, deference %.3f", minBase/float64(runs), minDefer/float64(runs))
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
