package main

import (
	"fmt"
	"math"
	"time"

	"copa/internal/api"
	"copa/internal/obs"
	"copa/internal/strategy"
)

// sloMS is the latency limit: one CSI coherence time. An allocation
// computed from CSI older than this is stale by the time it is used.
var sloMS = float64(strategy.DefaultCoherence) / float64(time.Millisecond)

// opResult is one measured op.
type opResult struct {
	latMS float64
	ok    bool // answered as expected and passed every check
	// wrong marks a well-formed op whose answer failed a check: the
	// program computed something incorrect, not merely refused.
	wrong bool
	// known marks an op whose failure is a known defect: a serve-hot
	// request with a non-finite number, which the wire layer accepts.
	known bool
}

// window is the measured interval's resource readings.
type window struct {
	a, b procSample
	rss  *rssPeak
}

func openWindow() window { return window{a: sampleProc(), rss: startRSSPeak()} }

func (w *window) close() {
	w.b = sampleProc()
	w.rss.stop()
}

// own is the share of the window's wall time the machine gave the VM.
func (w window) own() float64 { return 1 - stolen(w.a, w.b) }

// tally counts a run's ops for the result line.
func (r *report) tally(ops []opResult) {
	r.attempted, r.failed, r.knownFailed, r.correct = len(ops), 0, 0, true
	for _, o := range ops {
		if !o.ok {
			r.failed++
			if o.known {
				r.knownFailed++
			}
		}
		if o.wrong {
			r.correct = false
		}
	}
}

// endToEndMetrics derives the user-visible metrics of one untraced run.
// Latencies leave out the window's stolen share, as set-up times do
// (ownSeconds); so does throughput under a closed loop, where the
// program's speed sets it. An open loop's throughput is its arrival rate.
func endToEndMetrics(ops []opResult, w window, setups []float64, q *quality, closed bool) map[string]float64 {
	n := float64(len(ops))
	lat := latencies(ops)
	obs.Logger().Info("VM CPU stolen over the measured window", "share", 1-w.own())
	secs := w.b.wall.Sub(w.a.wall).Seconds()
	if closed {
		secs = ownSeconds(w.a, w.b)
	}
	var okN float64
	for _, o := range ops {
		if o.ok {
			okN++
		}
	}
	return map[string]float64{
		"setup_s": median(setups),
		"p50_ms":  median(lat) * w.own(),
		// p90, not p99: a serve-cold run holds about 500 requests and a
		// mobility run about 760 ticks. There p99 rests on a handful of
		// samples, and the mobility ticks that renegotiate twice (about
		// 1.5%) put it on the edge between two latency modes.
		"p90_ms":           quantile(lat, 0.90) * w.own(),
		"throughput_ops":   n / secs,
		"cpu_ms_per_op":    float64(w.b.cpu-w.a.cpu) / float64(time.Millisecond) / n,
		"alloc_kb_per_op":  float64(w.b.allocs-w.a.allocs) / 1024 / n,
		"rss_peak_mb":      w.rss.peakMB(),
		"ok_frac":          okN / n,
		"selected_mbps":    q.selectedMbps(),
		"decision_eff_pct": q.efficiencyPct(),
	}
}

// runtimeMetrics are the Go runtime's share of a traced window.
func runtimeMetrics(m map[string]float64, w window, ops int) {
	m["runtime.gc_cpu_frac"] = ratio(w.b.gcCPU-w.a.gcCPU, w.b.allCPU-w.a.allCPU)
	m["runtime.gc_cycles_per_op"] = ratio(float64(w.b.gcCycles-w.a.gcCycles), float64(ops))
}

// latencies extracts op latencies in ms.
func latencies(ops []opResult) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.latMS
	}
	return out
}

// kindByName maps wire strategy names back to kinds.
var kindByName = func() map[string]strategy.Kind {
	m := map[string]strategy.Kind{}
	for k := strategy.KindCSMA; k <= strategy.KindConcNull; k++ {
		m[k.String()] = k
	}
	return m
}()

// checkResponse verifies one allocation answer: every aggregate is finite,
// the selected strategy's is positive, and the selection equals COPA's
// decision rule re-applied to the returned outcomes.
func checkResponse(resp api.AllocateResponse, mode strategy.Mode) error {
	outs := make(map[strategy.Kind]strategy.Outcome, len(resp.Outcomes))
	for name, o := range resp.Outcomes {
		k, ok := kindByName[name]
		if !ok || o.Strategy != name {
			return fmt.Errorf("unknown outcome %q", name)
		}
		for _, v := range []float64{o.AggregateBps, o.PerClientBps[0], o.PerClientBps[1], o.PredictedBps[0], o.PredictedBps[1]} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: non-finite throughput", name)
			}
		}
		outs[k] = strategy.Outcome{Kind: k, Concurrent: o.Concurrent, SDA: o.SDA, PerClient: o.PerClientBps, Predicted: o.PredictedBps}
	}
	if _, ok := outs[strategy.KindCOPASeq]; !ok {
		return fmt.Errorf("no COPA-SEQ outcome")
	}
	if !(resp.Selected.AggregateBps > 0) {
		return fmt.Errorf("selected aggregate %v not positive", resp.Selected.AggregateBps)
	}
	if want := api.ToOutcome(strategy.Select(mode, outs)); want != resp.Selected {
		return fmt.Errorf("selected %s, decision rule picks %s", resp.Selected.Strategy, want.Strategy)
	}
	return nil
}

// quality accumulates selected_mbps and decision_eff_pct over a fixed,
// seed-determined op set, in op order, so both repeat exactly.
// decision_eff_pct is 100 minus the max-mode regret, taken over sums: the
// selected strategies' realized aggregate as a share of the best realized
// outcome in each answer. A sum over the set varies far less from seed to
// seed than a mean of per-answer regrets, most of which are 0.
type quality struct {
	sel             []float64
	selMax, bestMax float64
}

func (q *quality) add(resp api.AllocateResponse, mode strategy.Mode) {
	q.sel = append(q.sel, resp.Selected.AggregateBps/1e6)
	if mode != strategy.ModeMax {
		return
	}
	best := 0.0
	for _, o := range resp.Outcomes {
		best = math.Max(best, o.AggregateBps)
	}
	q.selMax += resp.Selected.AggregateBps
	q.bestMax += best
}

func (q *quality) selectedMbps() float64 { return mean(q.sel) }

func (q *quality) efficiencyPct() float64 { return 100 * ratio(q.selMax, q.bestMax) }

// zeroLayers starts a per-layer metric set with every metric at 0, the
// value a layer reports on a workload that never reaches it.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// tracedCommon fills the metrics every traced run reports: runtime
// shares, tracing overhead against the untraced reference phase, the
// part of the op latency no span accounts for, and the written spans.
func tracedCommon(m map[string]float64, col *collector, w window, traced, untraced []opResult, setups []float64, o options, workload string) {
	runtimeMetrics(m, w, len(traced))
	p50, ref := median(latencies(traced)), median(latencies(untraced))
	m["obs.trace_overhead_pct"] = 100 * ratio(p50-ref, ref)
	// The latency limit is judged on the untraced phase. It is reported
	// here rather than end to end because most serve-cold requests and
	// mobility ticks take close to one coherence time, so the share
	// swings by a third between runs at a fixed seed.
	miss := 0
	for _, r := range untraced {
		if !r.ok || r.latMS > sloMS {
			miss++
		}
	}
	m["loadgen.slo_miss_frac"] = ratio(float64(miss), float64(len(untraced)))
	if len(col.stats.blocking) > 0 {
		m["trace.unattributed_pct"] = 100 * ratio(p50-median(col.stats.blocking), p50)
	}
	m["trace.spans_lost"] = float64(col.lost)
	m["traced.setup_s"] = median(setups)
	if o.spansOut != "" {
		path := fmt.Sprintf("%s/%s-%d.json.gz", o.spansOut, workload, o.seed)
		if err := col.writeSpans(path); err != nil {
			obs.Logger().Warn("writing spans failed", "path", path, "err", err)
		}
	}
}
