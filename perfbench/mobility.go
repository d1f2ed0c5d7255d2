package main

import (
	"fmt"
	"math"
	"time"

	"copa/internal/channel"
	"copa/internal/drift"
	"copa/internal/obs"
	"copa/internal/rng"
	"copa/internal/strategy"
)

const (
	// mobilityTicks is each controller's simulated run: 40 ticks of 5 ms.
	mobilityTicks = 40
	// mobilityTickRate sizes a run: about the ticks per wall second the
	// controller goroutine completes on the 2-core reference host (27 to
	// 36 measured). A run of S seconds simulates S·mobilityTickRate
	// ticks, so its op set is fixed by the seed and the run length, and
	// every count repeats exactly.
	mobilityTickRate = 30
	// mobilityTestbed fixes the deployments, as the paper's testbed
	// revisits one building; the run seed drives channel evolution, CSI
	// noise and events. Drawing new deployments per seed made the share of
	// full-exchange ticks, and with it every per-tick cost, vary by a
	// fifth from seed to seed.
	mobilityTestbed = 1
)

// tickKind classifies a tick by what it did.
const (
	tickIdle = iota
	tickIncremental
	tickFull
)

// mobilityController builds controller k of a run: a 4x2 deployment,
// pedestrian for even k and vehicular for odd k.
func mobilityController(seed int64, k int) *drift.Controller {
	cfg := drift.DefaultConfig()
	cfg.SpeedMps = drift.Pedestrian.SpeedMps
	if k%2 == 1 {
		cfg.SpeedMps = drift.Vehicular.SpeedMps
	}
	cfg.Seed = rng.Derive(seed, uint64(k))
	dep := channel.DeploymentAt(mobilityTestbed, channel.Scenario4x2, k)
	return drift.NewController(dep, mobilityTicks*cfg.Step, cfg)
}

// mobilityControllers is how many controllers a run of d simulates; at
// least one of each speed.
func mobilityControllers(d time.Duration) int {
	return max(2, int(math.Round(d.Seconds()*mobilityTickRate/mobilityTicks)))
}

// tick is one measured Controller.Tick.
type tick struct {
	res  opResult
	kind int
}

// runController ticks c through its simulated run and checks what it
// produced.
func runController(c *drift.Controller) []tick {
	out := make([]tick, 0, mobilityTicks)
	for i := 0; i < mobilityTicks; i++ {
		st := c.Stats()
		exch, inc := st.Exchanges, st.Incremental
		start := time.Now()
		err := c.Tick()
		t := tick{res: opResult{latMS: float64(time.Since(start)) / float64(time.Millisecond), ok: err == nil, wrong: err != nil}}
		switch {
		case st.Exchanges > exch:
			t.kind = tickFull
		case st.Incremental > inc:
			t.kind = tickIncremental
		}
		out = append(out, t)
		if err != nil {
			obs.Logger().Warn("mobility tick failed", "err", err)
			return out
		}
	}
	if agg := c.Stats().MeanAggregate(); !(agg > 0) || math.IsInf(agg, 0) || c.Stats().Steps != mobilityTicks {
		out[len(out)-1].res.ok, out[len(out)-1].res.wrong = false, true
	}
	return out
}

// mobilityRun is one measured mobility run.
type mobilityRun struct {
	ticks []tick
	stats []drift.Stats // per controller, in controller order
}

// driveMobility runs every controller to the end of its simulated run,
// one after another on one goroutine. The second core is left to the
// garbage collector: the controller allocates about 4 MiB per tick, and
// with a controller goroutine on each core the run-to-run spread of every
// timing metric at a fixed seed grew to 15-35%.
func driveMobility(ctls []*drift.Controller) mobilityRun {
	run := mobilityRun{stats: make([]drift.Stats, len(ctls))}
	for i, c := range ctls {
		run.ticks = append(run.ticks, runController(c)...)
		run.stats[i] = *c.Stats()
	}
	return run
}

func (r mobilityRun) results() []opResult {
	out := make([]opResult, len(r.ticks))
	for i, t := range r.ticks {
		out[i] = t.res
	}
	return out
}

// mobilityQuality is the controllers' mean realized aggregate, and the
// efficiency of COPA's max-mode decision on their starting deployments.
func mobilityQuality(seed int64, stats []drift.Stats) (*quality, error) {
	q := &quality{}
	for k := range stats {
		q.sel = append(q.sel, stats[k].MeanAggregate()/1e6)
		dep := channel.DeploymentAt(mobilityTestbed, channel.Scenario4x2, k)
		ev := strategy.NewEvaluator(dep, channel.DefaultImpairments(), rng.NewSub(seed, uint64(k)))
		outs, err := ev.EvaluateAll()
		if err != nil {
			return nil, fmt.Errorf("mobility decision quality: %w", err)
		}
		best := 0.0
		for _, o := range outs {
			best = math.Max(best, o.Aggregate())
		}
		q.selMax += strategy.Select(strategy.ModeMax, outs).Aggregate()
		q.bestMax += best
	}
	return q, nil
}

// mobilitySetup builds controllers first..first+n-1 and runs one warm-up
// tick on a spare one: the full exchange a controller opens with.
func mobilitySetup(seed int64, first, n int) ([]*drift.Controller, error) {
	ctls := make([]*drift.Controller, n)
	for k := range ctls {
		ctls[k] = mobilityController(seed, first+k)
	}
	return ctls, mobilityController(0, -1).Tick()
}

func runMobility(o options) (*report, error) {
	n := mobilityControllers(o.seconds)
	var setups []float64
	var ctls []*drift.Controller
	for i := 0; i < o.setups; i++ {
		settle()
		a := sampleProc()
		var err error
		if ctls, err = mobilitySetup(o.seed, 0, n); err != nil {
			return nil, fmt.Errorf("mobility set-up: %w", err)
		}
		setups = append(setups, ownSeconds(a, sampleProc()))
	}
	obs.SetTraceSampling(0)
	if !o.trace {
		settle()
		w := openWindow()
		run := driveMobility(ctls)
		w.close()
		res := run.results()
		q, err := mobilityQuality(o.seed, run.stats)
		if err != nil {
			return nil, err
		}
		rep := &report{metrics: endToEndMetrics(res, w, setups, q, true)}
		rep.tally(res)
		return rep, nil
	}

	refCtls, err := mobilitySetup(o.seed, n, mobilityControllers(o.seconds/3))
	if err != nil {
		return nil, fmt.Errorf("mobility set-up: %w", err)
	}
	ref := driveMobility(refCtls)
	obs.SetTraceSampling(1)
	defer obs.SetTraceSampling(0)
	settle()
	col := newCollector(obs.Tracing())
	col.start(5 * time.Millisecond)
	d := regDelta{a: snapshot()}
	w := openWindow()
	run := driveMobility(ctls)
	w.close()
	d.b = snapshot()
	col.finish()
	obs.SetTraceSampling(0)
	res := run.results()

	m := zeroLayers()
	evaluatorLayers(m, d, len(res))
	m["strategy.nulling_infeasible_frac"] = ratio(d.counter("copa.strategy.nulling_infeasible"), d.counter("copa.its.sessions"))
	var byKind [3][]float64
	for _, t := range run.ticks {
		byKind[t.kind] = append(byKind[t.kind], t.res.latMS)
	}
	m["drift.tick_idle_us"] = 1e3 * mean(byKind[tickIdle])
	m["drift.tick_incremental_ms"] = mean(byKind[tickIncremental])
	m["drift.tick_full_ms"] = mean(byKind[tickFull])
	var sum drift.Stats
	for _, s := range run.stats {
		sum.Exchanges += s.Exchanges
		sum.Incremental += s.Incremental
		sum.CertRevocations += s.CertRevocations
		sum.FullCSIBytes += s.FullCSIBytes
		sum.DeltaCSIBytes += s.DeltaCSIBytes
		sum.Elapsed += s.Elapsed
	}
	m["drift.incremental_ratio"] = ratio(float64(sum.Incremental), d.counter("copa.drift.detector_triggers"))
	m["drift.cert_revocation_ratio"] = ratio(float64(sum.CertRevocations), float64(sum.Incremental+sum.CertRevocations))
	m["drift.full_exchanges_per_s"] = ratio(float64(sum.Exchanges), sum.Elapsed.Seconds())
	m["csi.full_bytes_per_exchange"] = ratio(float64(sum.FullCSIBytes), float64(sum.Exchanges))
	m["csi.delta_bytes_per_incremental"] = ratio(float64(sum.DeltaCSIBytes), float64(sum.Incremental))
	exch, legReq, legAck := col.flat["its.exchange"], col.flat["its.leg.req"], col.flat["its.leg.ack"]
	m["core.its_exchange_ms"] = exch.mean() / 1e3
	if legReq != nil && legAck != nil {
		m["core.its_leg_ms"] = ratio(legReq.sum+legAck.sum, float64(legReq.n+legAck.n)) / 1e3
	}
	dep := channel.DeploymentAt(mobilityTestbed, channel.Scenario4x2, 0)
	if err := layerProbes(m, dep, rng.NewSub(o.seed, 0xc5), func() { channel.DeploymentAt(mobilityTestbed, channel.Scenario4x2, 0) }); err != nil {
		return nil, err
	}
	if err := driftProbes(m, dep, o.seed); err != nil {
		return nil, err
	}
	tracedCommon(m, col, w, res, ref.results(), setups, o, "mobility")
	rep := &report{metrics: m}
	rep.tally(res)
	return rep, nil
}
