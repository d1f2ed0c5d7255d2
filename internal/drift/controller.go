package drift

import (
	"fmt"
	"math"
	"time"

	"copa/internal/channel"
	"copa/internal/core"
	"copa/internal/csi"
	"copa/internal/mac"
	"copa/internal/power"
	"copa/internal/precoding"
	"copa/internal/rng"
	"copa/internal/strategy"
)

// Config parameterizes the online re-allocation controller.
type Config struct {
	Impairments channel.Impairments
	Mode        strategy.Mode
	// SpeedMps is the mobility speed driving the Doppler model.
	SpeedMps float64
	// Step is the control-loop tick. Defaults to 5 ms.
	Step time.Duration
	// ThresholdDB is the drift detector's excursion threshold.
	// Defaults to 1 dB.
	ThresholdDB float64
	// CertThresholdDB is the nullspace-certificate revocation level: a
	// cached nulling plan whose leakage on fresh CSI exceeds this is
	// discarded and the pair renegotiates fully. Defaults to −15 dB —
	// above the ~−30 dB residual floor that fresh measurement noise
	// alone induces, and the level at which leakage becomes comparable
	// to the staleness impairment the predictor already budgets for.
	CertThresholdDB float64
	// ReassocPerSec / ChurnPerSec are the Poisson rates of the event
	// timeline (per client / per AP). Zero disables.
	ReassocPerSec float64
	ChurnPerSec   float64
	// AirtimeUS is the data airtime each ITS exchange negotiates for.
	// Defaults to the MAC TXOP.
	AirtimeUS uint32
	// Seed drives every stream the controller touches (evolution,
	// events, measurements, exchanges).
	Seed int64
}

// DefaultConfig returns the standard controller settings.
func DefaultConfig() Config {
	return Config{
		Impairments:     channel.DefaultImpairments(),
		Mode:            strategy.ModeMax,
		Step:            5 * time.Millisecond,
		ThresholdDB:     1.0,
		CertThresholdDB: -15,
		AirtimeUS:       uint32(mac.TxOp.Microseconds()),
	}
}

func (c *Config) fillDefaults() {
	if c.Step <= 0 {
		c.Step = 5 * time.Millisecond
	}
	if c.ThresholdDB <= 0 {
		c.ThresholdDB = 1.0
	}
	if c.CertThresholdDB == 0 {
		c.CertThresholdDB = -15
	}
	if c.AirtimeUS == 0 {
		c.AirtimeUS = uint32(mac.TxOp.Microseconds())
	}
}

// Stats accumulates what the controller did over a run.
type Stats struct {
	// Steps is the number of control ticks executed.
	Steps int
	// Exchanges counts full ITS exchanges, including the initial one;
	// Renegotiations counts only the drift/event-triggered ones
	// (Exchanges − 1 once the controller has started). At speed 0 with
	// no events, Renegotiations is provably zero: EvolveRho(ρ=1) leaves
	// the channels bit-identical, so realized and predicted throughput
	// are exactly constant and the detector's excursion is exactly 0.
	Exchanges      int
	Renegotiations int
	// Incremental counts warm-started in-place re-allocations that
	// reused the cached nulling plans without an ITS exchange.
	Incremental int
	// CertRevocations counts incremental attempts aborted because the
	// cached nulling plan's leakage on fresh CSI crossed the
	// certificate threshold.
	CertRevocations int
	// Events counts applied timeline events; Fallbacks counts
	// exchanges that exhausted retries and reverted to CSMA.
	Events    int
	Fallbacks int
	// ControlBytes sums ITS frame bytes; FullCSIBytes and
	// DeltaCSIBytes sum the CSI payloads of full frames and delta
	// frames respectively.
	ControlBytes  int
	FullCSIBytes  int
	DeltaCSIBytes int
	// RealizedBits integrates the pair's aggregate realized throughput
	// over the run; Elapsed is the simulated time covered.
	RealizedBits float64
	Elapsed      time.Duration
}

// MeanAggregate returns the run's realized aggregate throughput in
// bits/s.
func (s *Stats) MeanAggregate() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return s.RealizedBits / s.Elapsed.Seconds()
}

// Controller runs the drift detector + re-allocation loop over one
// evolving pair. It is single-goroutine and fully deterministic in
// (deployment, Config.Seed).
type Controller struct {
	cfg   Config
	pair  *core.Pair
	model *Model
	tl    Timeline
	det   Detector

	tx        [2]*precoding.Transmission
	prec      [2]*precoding.Precoder
	alloc     *power.Result
	warmDrops [][]int
	baseCSI   [2]*channel.Link // cross links at the last full frame
	epoch     int64
	conc      bool
	needFull  bool
	predicted float64

	// onIncremental, when set (tests only), observes every incremental
	// re-allocation with the exact sender CSI it solved from — the hook
	// behind the "incremental tracks the from-scratch solve" tolerance
	// test.
	onIncremental func(senders [2]power.SenderCSI, res *power.Result)

	stats Stats
}

// NewController builds a controller over a deployment (evolved in
// place) for a run of the given duration (the duration bounds the event
// timeline; Run may be called for less).
func NewController(dep *channel.Deployment, duration time.Duration, cfg Config) *Controller {
	cfg.fillDefaults()
	return &Controller{
		cfg:      cfg,
		pair:     core.NewPair(dep, cfg.Impairments, strategy.DefaultCoherence, cfg.Mode, rng.NewSub(cfg.Seed, 0xd21f)),
		model:    NewModel(dep, cfg.SpeedMps, cfg.Seed),
		tl:       NewTimeline(cfg.Seed, duration, cfg.ReassocPerSec, cfg.ChurnPerSec),
		det:      Detector{ThresholdDB: cfg.ThresholdDB},
		needFull: true,
	}
}

// Stats returns the accumulated run statistics.
func (c *Controller) Stats() *Stats { return &c.stats }

// realized scores the current transmissions on the TRUE channels,
// mirroring core.Pair.MeasuredThroughputs' concurrent arithmetic.
func (c *Controller) realized() float64 {
	if c.tx[0] == nil && c.tx[1] == nil {
		thr := c.pair.CSMAThroughputs()
		return thr[0] + thr[1]
	}
	noise := channel.NoisePerSubcarrierMW()
	ovm := mac.DefaultOverheadModel()
	var sum float64
	if c.conc {
		oh := ovm.COPAConcOverhead(strategy.DefaultCoherence)
		for j := 0; j < 2; j++ {
			g := power.GoodputFor(c.pair.Truth.H[j][j], c.tx[j], c.pair.Truth.H[1-j][j], c.tx[1-j], noise)
			sum += g * (1 - oh - mac.DataOverheadFraction)
		}
		return sum
	}
	oh := ovm.COPASeqOverhead(strategy.DefaultCoherence)
	for j := 0; j < 2; j++ {
		if c.tx[j] == nil {
			continue
		}
		g := power.GoodputFor(c.pair.Truth.H[j][j], c.tx[j], nil, nil, noise)
		sum += g * 0.5 * (1 - oh - mac.DataOverheadFraction)
	}
	return sum
}

// fullExchange runs a complete ITS exchange: fresh CSI everywhere, new
// precoders, full CSI frames on the wire.
func (c *Controller) fullExchange() error {
	mFullExchanges.Inc()
	c.pair.MeasureCSI()
	s, err := c.pair.RunExchange(c.cfg.AirtimeUS)
	if err != nil {
		return fmt.Errorf("drift: exchange at t=%v: %w", c.pair.Clock(), err)
	}
	if c.stats.Exchanges > 0 {
		c.stats.Renegotiations++
	}
	c.stats.Exchanges++
	c.stats.ControlBytes += s.ControlBytes
	c.needFull = false
	c.alloc = nil
	c.warmDrops = nil
	c.prec = [2]*precoding.Precoder{}
	c.baseCSI = [2]*channel.Link{}
	if s.Fallback {
		c.stats.Fallbacks++
		c.tx = [2]*precoding.Transmission{}
		c.conc = false
		r := c.realized()
		c.predicted = r
		c.det.Rebase(c.predicted, r)
		return nil
	}
	c.tx = s.Tx
	c.conc = s.Concurrent
	c.predicted = s.Outcome.Predicted[0] + s.Outcome.Predicted[1]
	if s.Concurrent {
		// Cache the plan the incremental path will reuse: precoders,
		// the power result as a warm start, and the full CSI frames as
		// the delta base.
		c.prec = [2]*precoding.Precoder{s.Tx[0].Precoder, s.Tx[1].Precoder}
		c.alloc = &power.Result{Tx: []*precoding.Transmission{s.Tx[0], s.Tx[1]}}
		c.warmDrops = [][]int{
			make([]int, s.Tx[0].Precoder.Streams),
			make([]int, s.Tx[1].Precoder.Streams),
		}
		c.epoch++
		for i := 0; i < 2; i++ {
			cross := c.model.MeasureCSI(c.cfg.Impairments, i, 1-i)
			c.baseCSI[i] = cross
			if frame, err := csi.EncodeLink(cross); err == nil {
				c.stats.FullCSIBytes += len(frame)
				mCSIBytes.ObserveInt(len(frame))
			}
		}
	}
	c.det.Rebase(c.predicted, c.realized())
	return nil
}

// incremental re-allocates power in place: fresh CSI measurements,
// cached precoders, warm-started Equi-SNR, delta-CSI frames. Falls back
// to a full exchange when the nullspace certificate is revoked.
func (c *Controller) incremental() error {
	var fresh [2][2]*channel.Link
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			fresh[i][j] = c.model.MeasureCSI(c.cfg.Impairments, i, j)
		}
	}
	// Nullspace certificate: the cached plan must still null the OTHER
	// client on the fresh estimates.
	for i := 0; i < 2; i++ {
		if res := NullResidualDB(fresh[i][1-i], c.prec[i]); res > c.cfg.CertThresholdDB {
			c.stats.CertRevocations++
			mCertRevocations.Inc()
			return c.fullExchange()
		}
	}
	mIncremental.Inc()
	budget := channel.TotalTxBudgetMW()
	senders := [2]power.SenderCSI{
		{Own: fresh[0][0], Cross: fresh[0][1], Precoder: c.prec[0], BudgetMW: budget},
		{Own: fresh[1][1], Cross: fresh[1][0], Precoder: c.prec[1], BudgetMW: budget},
	}
	pcfg := power.DefaultConfig()
	pcfg.Impairments = c.cfg.Impairments
	// Previous-epoch state enters through the drop-level hints: each
	// Equi-SNR inner scan warm-starts at the previous power vector's
	// drop level, which skips the water-level search yet provably
	// returns the bit-identical allocation. The previous power grids
	// deliberately do NOT seed the Jacobi sweep: under drift the
	// best-response trajectory from equal split dominates the one from
	// the stale optimum (measured 10–26% higher aggregate on
	// pedestrian-drifted estimates). The speedup comes from Patience:
	// the trajectory typically peaks within the first sweeps, so early
	// stopping cuts the mean sweep count from 12 to ~3.4 while staying
	// within the documented tolerance of the from-scratch solve
	// (median exact, p90 ≈ 3%; see DESIGN §14).
	pcfg.WarmDrops = c.warmDrops
	pcfg.Patience = 2
	res := power.Concurrent(senders, pcfg)
	if c.onIncremental != nil {
		c.onIncremental(senders, res)
	}

	// Delta frames: each AP ships its cross-channel diff against the
	// last full frame.
	nextEpoch := c.epoch + 1
	for i := 0; i < 2; i++ {
		if c.baseCSI[i] == nil {
			continue
		}
		frame, err := csi.EncodeDelta(c.baseCSI[i].Subcarriers, fresh[i][1-i].Subcarriers, c.epoch, nextEpoch)
		if err == nil {
			c.stats.DeltaCSIBytes += len(frame)
			mDeltaBytes.ObserveInt(len(frame))
		}
	}
	c.epoch = nextEpoch

	c.alloc = res
	c.tx = [2]*precoding.Transmission{res.Tx[0], res.Tx[1]}
	c.conc = true
	oh := mac.DefaultOverheadModel().COPAConcOverhead(strategy.DefaultCoherence)
	c.predicted = (res.Goodput[0] + res.Goodput[1]) * (1 - oh - mac.DataOverheadFraction)
	c.stats.Incremental++
	c.det.Rebase(c.predicted, c.realized())
	return nil
}

// Tick advances the world by one control step and runs the detector /
// re-allocation logic.
func (c *Controller) Tick() error {
	if c.needFull {
		if err := c.fullExchange(); err != nil {
			return err
		}
	}
	before := c.pair.Clock()
	c.model.Advance(c.cfg.Step)
	// Move the pair's virtual clock only: the model owns channel
	// evolution (coherence +Inf makes Pair.Advance a pure clock move).
	c.pair.Advance(c.cfg.Step, math.Inf(1))
	now := c.pair.Clock()

	for _, ev := range c.tl.Due(before, now) {
		c.stats.Events++
		mEvents.Inc()
		switch ev.Kind {
		case EventReassoc:
			c.model.Reassociate(ev.Node)
		case EventAPChurn:
			// No physical change, but every cached plan on that AP —
			// and hence the pair's joint plan — is gone.
			c.alloc = nil
			c.prec = [2]*precoding.Precoder{}
		}
		c.needFull = true
	}

	r := c.realized()
	c.stats.RealizedBits += r * c.cfg.Step.Seconds()
	c.stats.Elapsed += c.cfg.Step
	c.stats.Steps++

	switch {
	case c.needFull:
		if err := c.fullExchange(); err != nil {
			return err
		}
	case c.det.Drifted(c.predicted, r):
		mDriftTriggers.Inc()
		if c.conc && c.prec[0] != nil && c.prec[1] != nil && c.alloc != nil {
			if err := c.incremental(); err != nil {
				return err
			}
		} else {
			if err := c.fullExchange(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run executes ticks until the given duration of virtual time has
// elapsed and returns the accumulated stats.
func (c *Controller) Run(duration time.Duration) (*Stats, error) {
	for c.stats.Elapsed < duration {
		if err := c.Tick(); err != nil {
			return nil, err
		}
	}
	return &c.stats, nil
}
