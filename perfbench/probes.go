package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"copa/internal/api"
	"copa/internal/channel"
	"copa/internal/csi"
	"copa/internal/drift"
	"copa/internal/linalg"
	"copa/internal/ofdm"
	"copa/internal/power"
	"copa/internal/precoding"
	"copa/internal/rng"
	"copa/internal/strategy"
)

// Probes time the benchmark's own calls into a layer's public functions
// on the workload's own inputs. They run after the measured window, so
// the registry deltas above them do not include their work.

// probeUS returns the median wall time of one f call in microseconds,
// over reps timed calls after one untimed warm-up call.
func probeUS(reps int, f func()) float64 {
	f()
	xs := make([]float64, reps)
	for i := range xs {
		start := time.Now()
		f()
		xs[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}
	return median(xs)
}

// perItemUS is the median over items of the mean time of inner calls of f
// on that item, for calls too short to time one at a time.
func perItemUS(n, inner int, f func(i int)) float64 {
	xs := make([]float64, n)
	for i := range xs {
		f(i)
		start := time.Now()
		for j := 0; j < inner; j++ {
			f(i)
		}
		xs[i] = float64(time.Since(start)) / float64(time.Microsecond) / float64(inner)
	}
	return median(xs)
}

// apiProbes times the wire layer on the workload's request bodies and
// answers. binBodies may be nil; they are then encoded from the JSON ones.
func apiProbes(m map[string]float64, bodies, binBodies [][]byte, answers []api.AllocateResponse) error {
	const maxItems, inner = 256, 20
	bodies = bodies[:min(len(bodies), maxItems)]
	answers = answers[:min(len(answers), maxItems)]
	reqs := make([]api.AllocateRequest, len(bodies))
	for i, b := range bodies {
		ar, err := api.DecodeRequestBody(api.ContentTypeJSON, b)
		if err != nil {
			return fmt.Errorf("api probe: %w", err)
		}
		reqs[i] = ar
	}
	if binBodies == nil {
		for _, ar := range reqs {
			b, err := api.EncodeRequestBinary(ar)
			if err != nil {
				return fmt.Errorf("api probe: %w", err)
			}
			binBodies = append(binBodies, b)
		}
	}
	binBodies = binBodies[:min(len(binBodies), maxItems)]
	m["api.decode_json_us"] = perItemUS(len(bodies), inner, func(i int) { _, _ = api.DecodeRequestBody(api.ContentTypeJSON, bodies[i]) })
	m["api.decode_bin_us"] = perItemUS(len(binBodies), inner, func(i int) { _, _ = api.DecodeRequestBody(api.ContentTypeBinary, binBodies[i]) })
	m["api.parse_us"] = perItemUS(len(reqs), inner, func(i int) { _, _ = api.ParseRequest(reqs[i]) })
	var buf bytes.Buffer
	m["api.encode_json_us"] = perItemUS(len(answers), inner, func(i int) {
		buf.Reset()
		_ = json.NewEncoder(&buf).Encode(answers[i])
	})
	m["api.encode_bin_us"] = perItemUS(len(answers), inner, func(i int) { _, _ = api.EncodeResponseBinary(answers[i]) })
	return nil
}

// evaluatorLayers fills the strategy and power metrics from the registry
// delta over a measured window of ops ops.
func evaluatorLayers(m map[string]float64, d regDelta, ops int) {
	m["strategy.evaluate_all_ms"] = 1e3 * d.histMean("copa.strategy.evaluate_all_seconds")
	for k := strategy.KindCSMA; k <= strategy.KindConcNull; k++ {
		s := kindSlug[k]
		m["strategy.eval_ms."+s] = 1e3 * d.histMean("copa.strategy.eval_seconds."+s)
	}
	m["power.alloc_ms"] = 1e3 * d.histMean("copa.power.alloc_seconds")
	powerCounts(m, d, ops)
}

// powerCounts fills the power layer's work counts per op.
func powerCounts(m map[string]float64, d regDelta, ops int) {
	n := float64(ops)
	calls := d.counter("copa.power.equisnr_calls")
	m["power.iters_mean"] = d.histMean("copa.power.alloc_iters")
	m["power.equisnr_calls_per_op"] = calls / n
	m["power.warm_ratio"] = ratio(d.counter("copa.power.equisnr_warm_calls"), calls)
	m["power.mercury_calls_per_op"] = d.counter("copa.power.mercury_calls") / n
	m["power.converge_failures"] = d.counter("copa.power.converge_failures")
}

// kindSlug is the metric-name fragment internal/strategy uses per kind.
var kindSlug = map[strategy.Kind]string{
	strategy.KindCSMA:     "csma",
	strategy.KindCOPASeq:  "copa_seq",
	strategy.KindNull:     "null",
	strategy.KindConcBF:   "conc_bf",
	strategy.KindConcNull: "conc_null",
}

// evaluatorProbes times the evaluator's layers on one 4x2 world the
// workload served, drawn exactly as serve draws a world from its seed.
func evaluatorProbes(m map[string]float64, worldSeed int64) error {
	sc := channel.Scenario4x2
	dep := channel.NewDeployment(rng.New(worldSeed).Split(1), sc)
	return layerProbes(m, dep, rng.New(worldSeed).Split(2), func() {
		channel.NewDeployment(rng.New(worldSeed).Split(1), sc)
	})
}

// layerProbes times precoding, ofdm, linalg, power and channel calls on a
// deployment's CSI estimates. newDep rebuilds the deployment.
func layerProbes(m map[string]float64, dep *channel.Deployment, src *rng.Source, newDep func()) error {
	const reps = 15
	imp := channel.DefaultImpairments()
	var est [2][2]*channel.Link
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			est[i][j] = imp.EstimateCSI(src, dep.H[i][j])
		}
	}
	streams := dep.Scenario.Streams
	var prec [2]*precoding.Precoder
	for i := 0; i < 2; i++ {
		p, err := precoding.Nulling(est[i][i], est[i][1-i], streams)
		if err != nil {
			return fmt.Errorf("layer probe: %w", err)
		}
		prec[i] = p
	}
	budget := channel.TotalTxBudgetMW()
	noise := channel.NoisePerSubcarrierMW()
	var tx [2]*precoding.Transmission
	for i := range tx {
		tx[i] = precoding.NewTransmission(prec[i], precoding.EqualSplit(ofdm.NumSubcarriers, streams, budget), imp)
	}
	m["channel.deployment_us"] = probeUS(reps, newDep)
	m["precoding.nulling_us"] = probeUS(reps, func() { _, _ = precoding.Nulling(est[0][0], est[0][1], streams) })
	m["precoding.beamforming_us"] = probeUS(reps, func() { _, _ = precoding.Beamforming(est[0][0], streams) })
	var sinrs [][]float64
	m["precoding.stream_sinrs_us"] = probeUS(reps, func() {
		sinrs = precoding.StreamSINRs(dep.H[0][0], tx[0], dep.H[1][0], tx[1], noise)
	})
	col := make([]float64, len(sinrs))
	for k := range sinrs {
		col[k] = sinrs[k][0]
	}
	m["ofdm.best_rate_us"] = probeUS(reps, func() { ofdm.BestRate(col) })
	m["ofdm.joint_best_rate_us"] = probeUS(reps, func() { ofdm.JointBestRate(sinrs) })
	var ws linalg.Workspace
	n := est[0][0].NTx()
	m["linalg.eig_batch_us"] = probeUS(reps, func() {
		ws.Reset()
		b := ws.HermitianBatch(n, ofdm.NumSubcarriers)
		for k := 0; k < ofdm.NumSubcarriers; k++ {
			b.SetGram(k, est[0][0].Subcarriers[k])
		}
		linalg.EigHermitianBatch(&ws, &b)
	})
	senders := [2]power.SenderCSI{
		{Own: est[0][0], Cross: est[0][1], Precoder: prec[0], BudgetMW: budget},
		{Own: est[1][1], Cross: est[1][0], Precoder: prec[1], BudgetMW: budget},
	}
	cold := power.DefaultConfig()
	m["power.concurrent_cold_ms"] = probeUS(5, func() { power.Concurrent(senders, cold) }) / 1e3
	warm := power.DefaultConfig()
	warm.WarmDrops = [][]int{make([]int, streams), make([]int, streams)}
	warm.Patience = 2
	m["power.concurrent_warm_ms"] = probeUS(5, func() { power.Concurrent(senders, warm) }) / 1e3
	return nil
}

// driftProbes times one model step and one delta-CSI round trip on a
// mobility deployment at pedestrian speed.
func driftProbes(m map[string]float64, dep *channel.Deployment, seed int64) error {
	const reps = 50
	step := 5 * time.Millisecond
	model := drift.NewModel(dep, drift.Pedestrian.SpeedMps, seed)
	imp := channel.DefaultImpairments()
	base := model.MeasureCSI(imp, 0, 1)
	m["drift.model_advance_us"] = probeUS(reps, func() { model.Advance(step) })
	next := model.MeasureCSI(imp, 0, 1)
	frame, err := csi.EncodeDelta(base.Subcarriers, next.Subcarriers, 0, 1)
	if err != nil {
		return fmt.Errorf("csi probe: %w", err)
	}
	m["csi.encode_delta_us"] = probeUS(reps, func() { _, _ = csi.EncodeDelta(base.Subcarriers, next.Subcarriers, 0, 1) })
	m["csi.decode_delta_us"] = probeUS(reps, func() { _, _, _ = csi.DecodeDelta(frame, base.Subcarriers, 0) })
	return nil
}
