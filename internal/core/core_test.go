package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"copa/internal/channel"
	"copa/internal/mac"
	"copa/internal/precoding"
	"copa/internal/rng"
	"copa/internal/strategy"
)

func newTestPair(t *testing.T, seed int64, sc channel.Scenario, mode strategy.Mode) *Pair {
	t.Helper()
	src := rng.New(seed)
	dep := channel.NewDeployment(src.Split(1), sc)
	return NewPair(dep, channel.DefaultImpairments(), 30*time.Millisecond, mode, src.Split(2))
}

func TestCSICacheFreshness(t *testing.T) {
	c := NewCSICache(30 * time.Millisecond)
	addr := mac.Addr{1}
	l := channel.NewLink(rng.New(1), 2, 4, 1)
	c.Put(addr, l, 0)
	if _, ok := c.Get(addr, 10*time.Millisecond); !ok {
		t.Error("fresh entry not returned")
	}
	if _, ok := c.Get(addr, 31*time.Millisecond); ok {
		t.Error("stale entry returned")
	}
	if _, ok := c.Get(mac.Addr{9}, 0); ok {
		t.Error("unknown address returned")
	}
	if age, ok := c.Age(addr, 20*time.Millisecond); !ok || age != 20*time.Millisecond {
		t.Errorf("age = %v, %v", age, ok)
	}
	if n := c.Evict(100 * time.Millisecond); n != 1 || c.Len() != 0 {
		t.Errorf("evict = %d, len = %d", n, c.Len())
	}
}

func TestCSICacheBoundedUnderChurn(t *testing.T) {
	c := NewCSICache(30 * time.Millisecond)
	c.SetMaxEntries(16)
	l := channel.NewLink(rng.New(1), 2, 4, 1)

	// Churn: a new sender address every 1ms for far more puts than the
	// bound. The table must never exceed its limit.
	for i := 0; i < 400; i++ {
		addr := mac.Addr{byte(i >> 8), byte(i)}
		now := time.Duration(i) * time.Millisecond
		c.Put(addr, l, now)
		if c.Len() > 16 {
			t.Fatalf("after put %d: len = %d exceeds bound 16", i, c.Len())
		}
	}

	// Fresh churn (all entries inside coherence): the oldest fresh entry
	// must be sacrificed, and the newest retained.
	c2 := NewCSICache(time.Hour)
	c2.SetMaxEntries(4)
	for i := 0; i < 10; i++ {
		c2.Put(mac.Addr{byte(i)}, l, time.Duration(i)*time.Millisecond)
	}
	if c2.Len() > 4 {
		t.Fatalf("fresh churn: len = %d exceeds bound 4", c2.Len())
	}
	if _, ok := c2.Get(mac.Addr{9}, 10*time.Millisecond); !ok {
		t.Error("newest entry was evicted")
	}
	if _, ok := c2.Get(mac.Addr{0}, 10*time.Millisecond); ok {
		t.Error("oldest entry survived past the bound")
	}

	// Refreshing an existing address at the bound must not evict others.
	c3 := NewCSICache(time.Hour)
	c3.SetMaxEntries(2)
	c3.Put(mac.Addr{1}, l, 0)
	c3.Put(mac.Addr{2}, l, time.Millisecond)
	c3.Put(mac.Addr{2}, l, 2*time.Millisecond)
	if _, ok := c3.Get(mac.Addr{1}, 3*time.Millisecond); !ok {
		t.Error("refresh of an existing address evicted a neighbour")
	}
}

func TestExchangeRequiresCSI(t *testing.T) {
	p := newTestPair(t, 1, channel.Scenario4x2, strategy.ModeMax)
	// No MeasureCSI yet: the follower cannot answer.
	_, err := p.RunExchange(4000)
	if err == nil {
		t.Fatal("exchange should fail without CSI")
	}
	if !strings.Contains(err.Error(), "no fresh CSI") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestFullExchange4x2(t *testing.T) {
	p := newTestPair(t, 2, channel.Scenario4x2, strategy.ModeMax)
	p.MeasureCSI()
	s, err := p.RunExchange(4000)
	if err != nil {
		t.Fatal(err)
	}
	if s.LeaderIdx != 0 && s.LeaderIdx != 1 {
		t.Fatalf("leader = %d", s.LeaderIdx)
	}
	if s.Tx[s.LeaderIdx] == nil {
		t.Fatal("leader has no transmission")
	}
	if s.ControlBytes <= 0 {
		t.Error("no control bytes accounted")
	}
	if s.Concurrent {
		if s.Tx[1-s.LeaderIdx] == nil {
			t.Fatal("concurrent verdict but follower has no transmission")
		}
		// The follower's reconstructed transmission respects the budget
		// (within codec quantization).
		total := s.Tx[1-s.LeaderIdx].TotalPowerMW()
		if total > channel.BudgetForAntennasMW(4)*1.05 {
			t.Errorf("follower budget %.2f mW", total)
		}
	}
	tps := p.MeasuredThroughputs(s)
	if tps[0]+tps[1] <= 0 {
		t.Error("zero measured throughput")
	}
}

func TestExchangeCoherenceExpiry(t *testing.T) {
	p := newTestPair(t, 3, channel.Scenario4x2, strategy.ModeMax)
	p.MeasureCSI()
	p.Advance(31*time.Millisecond, math.Inf(1))
	if _, err := p.RunExchange(4000); err == nil {
		t.Fatal("exchange should fail once CSI is stale")
	}
	// Refreshing CSI fixes it.
	p.MeasureCSI()
	if _, err := p.RunExchange(4000); err != nil {
		t.Fatalf("exchange after refresh: %v", err)
	}
}

func TestExchange1x1(t *testing.T) {
	p := newTestPair(t, 4, channel.Scenario1x1, strategy.ModeFair)
	p.MeasureCSI()
	s, err := p.RunExchange(4000)
	if err != nil {
		t.Fatal(err)
	}
	// 1x1 can still decide concurrency (Conc-BF) or sequential; either
	// way, the strategy must be one of the 1x1-feasible kinds.
	switch s.Outcome.Kind {
	case strategy.KindCOPASeq, strategy.KindConcBF:
	default:
		t.Errorf("1x1 chose %v", s.Outcome.Kind)
	}
}

func TestExchange3x2SDA(t *testing.T) {
	p := newTestPair(t, 5, channel.Scenario3x2, strategy.ModeMax)
	p.MeasureCSI()
	s, err := p.RunExchange(4000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Concurrent && s.Outcome.Kind == strategy.KindConcNull && !s.Outcome.SDA {
		t.Error("3x2 concurrent nulling must use SDA")
	}
}

func TestFairModeNeverHurtsEitherClientPrediction(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		p := newTestPair(t, 20+seed, channel.Scenario4x2, strategy.ModeFair)
		p.MeasureCSI()
		s, err := p.RunExchange(4000)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Concurrent {
			continue
		}
		// The chosen concurrent outcome was admissible under fairness,
		// which the leader verified on predictions; simply require the
		// decision metadata to be coherent.
		if s.Outcome.Kind != strategy.KindConcBF && s.Outcome.Kind != strategy.KindConcNull {
			t.Errorf("seed %d: concurrent session with kind %v", seed, s.Outcome.Kind)
		}
	}
}

func TestFollowerPendingTxLifecycle(t *testing.T) {
	foundConc := false
	for seed := int64(0); seed < 8 && !foundConc; seed++ {
		p := newTestPair(t, 40+seed, channel.Scenario4x2, strategy.ModeMax)
		p.MeasureCSI()
		s, err := p.RunExchange(4000)
		if err != nil {
			t.Fatal(err)
		}
		fol := p.AP[1-s.LeaderIdx]
		if s.Concurrent {
			foundConc = true
			if fol.PendingTx() == nil {
				t.Error("follower should hold the negotiated transmission")
			}
		} else if fol.PendingTx() != nil {
			t.Error("sequential verdict should clear pending state")
		}
	}
	if !foundConc {
		t.Skip("no concurrent verdict in 8 seeds (acceptable but unusual)")
	}
}

func TestHandleITSReqWrongLeader(t *testing.T) {
	p := newTestPair(t, 6, channel.Scenario4x2, strategy.ModeMax)
	p.MeasureCSI()
	req := &mac.ITSReq{Leader: mac.Addr{0xff}}
	if _, err := p.AP[0].HandleITSReq(req.Marshal(), p.Clock()); err == nil {
		t.Error("REQ for another leader should be rejected")
	}
}

func TestHandleITSAckWrongFollower(t *testing.T) {
	p := newTestPair(t, 7, channel.Scenario4x2, strategy.ModeMax)
	ack := &mac.ITSAck{Follower: mac.Addr{0xff}, Decision: mac.DecideSequential}
	if _, _, err := p.AP[0].HandleITSAck(ack.Marshal(), 0); err == nil {
		t.Error("ACK for another follower should be rejected")
	}
}

func TestGarbledFramesSurfaceErrors(t *testing.T) {
	p := newTestPair(t, 8, channel.Scenario4x2, strategy.ModeMax)
	p.MeasureCSI()
	if _, err := p.AP[1].BuildITSReq([]byte{1, 2, 3}, 0); !errors.Is(err, mac.ErrBadFrame) {
		t.Errorf("garbled INIT: %v", err)
	}
	if _, err := p.AP[0].HandleITSReq([]byte{}, 0); !errors.Is(err, mac.ErrBadFrame) {
		t.Errorf("garbled REQ: %v", err)
	}
	if _, _, err := p.AP[0].HandleITSAck([]byte{0}, 0); !errors.Is(err, mac.ErrBadFrame) {
		t.Errorf("garbled ACK: %v", err)
	}
}

func TestChannelEvolutionChangesDecisionInputs(t *testing.T) {
	p := newTestPair(t, 9, channel.Scenario4x2, strategy.ModeMax)
	before := p.Truth.H[0][0].Subcarriers[0].Clone()
	p.Advance(50*time.Millisecond, 0.030)
	after := p.Truth.H[0][0].Subcarriers[0]
	if before.Equal(after, 1e-12) {
		t.Error("channel did not evolve")
	}
}

// PendingTx returns the transmission negotiated in the last exchange this
// AP followed, or nil if the verdict was sequential.
func (ap *AP) PendingTx() *precoding.Transmission { return ap.pendingTx }

// SetMaxEntries changes the bound; n <= 0 restores the default. The new
// bound takes effect on the next Put.
func (c *CSICache) SetMaxEntries(n int) {
	if n <= 0 {
		n = DefaultCacheEntries
	}
	c.max = n
}

// Age returns how old the entry for addr is at now, and whether it exists
// at all.
func (c *CSICache) Age(addr mac.Addr, now time.Duration) (time.Duration, bool) {
	e, ok := c.entries[addr]
	if !ok {
		return 0, false
	}
	return now - e.at, true
}
