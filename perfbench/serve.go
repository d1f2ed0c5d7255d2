package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"copa/internal/api"
	"copa/internal/obs"
	"copa/internal/serve"
	"copa/internal/strategy"
)

// coldRate is serve-cold's open-loop arrival rate in worlds per second,
// about 20 requests/s with the paired modes: under a third of the
// closed-loop capacity of the 2-core reference host (at least 70
// requests/s). At half capacity queueing turned the host's own 10%
// swings in CPU speed into 25-45% swings of p50 and p95 between runs.
const coldRate = 16.0

// refShare is the share of serve-cold responses re-derived in process
// after the run and compared byte for byte.
const refShare = 0.05

// strata deals the values of a pattern in a fresh random order each
// cycle, so every cycle of len(pattern) draws holds the pattern's exact
// mix and runs at different seeds differ in order, not in composition.
type strata[T any] struct {
	pattern []T
	left    []T
}

func (s *strata[T]) next(r *rand.Rand) T {
	if len(s.left) == 0 {
		s.left = append(s.left, s.pattern...)
		r.Shuffle(len(s.left), func(i, j int) { s.left[i], s.left[j] = s.left[j], s.left[i] })
	}
	v := s.left[0]
	s.left = s.left[1:]
	return v
}

// worldGen draws request worlds: 4x2 and 3x2 carry the evaluator's matrix
// work, 1x1 the nulling-infeasible path. The three come in equal shares,
// as the paper's evaluation runs the same number of topologies in each
// (EXPERIMENTS.md, figures 10, 11 and 13); no trace of allocation requests
// exists to weight them by. Modes alternate; CSI ages cover serve's four
// age buckets (each a quarter of the 30 ms coherence time), away from the
// bucket edges; one world in four is asked in both modes.
type worldGen struct {
	r        *rand.Rand
	scenario strata[string]
	mode     strata[string]
	bucket   strata[int]
	pair     strata[bool]
}

func newWorldGen(seed int64) *worldGen {
	return &worldGen{
		r:        rand.New(rand.NewSource(seed)),
		scenario: strata[string]{pattern: []string{"4x2", "3x2", "1x1"}},
		mode:     strata[string]{pattern: []string{"max", "fair"}},
		bucket:   strata[int]{pattern: []int{0, 1, 2, 3}},
		pair:     strata[bool]{pattern: []bool{true, false, false, false}},
	}
}

// next draws one world; bothModes reports whether it is also requested in
// the other mode.
func (g *worldGen) next(worldSeed int64) (ar api.AllocateRequest, bucket int, bothModes bool) {
	bucket = g.bucket.next(g.r)
	ar = api.AllocateRequest{
		Scenario: g.scenario.next(g.r),
		Seed:     worldSeed,
		Mode:     g.mode.next(g.r),
		CSIAgeMS: 7.5*float64(bucket) + 0.5 + 6.5*g.r.Float64(),
	}
	return ar, bucket, g.pair.next(g.r)
}

func otherMode(m string) string {
	if m == "max" {
		return "fair"
	}
	return "max"
}

func parseMode(m string) strategy.Mode {
	if m == "fair" {
		return strategy.ModeFair
	}
	return strategy.ModeMax
}

// coldOp is one scheduled serve-cold request.
type coldOp struct {
	due  time.Duration
	ar   api.AllocateRequest
	body []byte
	ref  bool // re-derived in process after the run
}

// coldTrace seeds serve-cold's traffic shape: the arrival times and, at
// each arrival, the scenario, mode, CSI age and whether both modes are
// asked. The shape is the same at every workload seed, as a recorded load
// is replayed; the seed draws the worlds (deployments and channels) and
// the sample re-derived in process. With arrivals drawn per seed, how they
// happened to cluster moved p90 by a third between seeds.
const coldTrace = 1

// coldSchedule lays worlds on Poisson arrivals over span: coldRate·span
// arrivals at independent uniform times, which is a Poisson process
// conditioned on its count, so every run at one length offers the same
// load. Every world is new; about a quarter are requested in both modes
// back to back, so the two requests share one evaluation when they meet in
// a batch.
func coldSchedule(seed int64, span time.Duration, worldBase int64) []coldOp {
	trace := rand.New(rand.NewSource(coldTrace))
	due := make([]float64, int(coldRate*span.Seconds()))
	for i := range due {
		due[i] = trace.Float64() * span.Seconds()
	}
	sort.Float64s(due)
	g := newWorldGen(coldTrace)
	pick := rand.New(rand.NewSource(seed))
	var ops []coldOp
	for world, t := range due {
		ar, _, both := g.next(worldBase + int64(world))
		modes := []string{ar.Mode}
		if both {
			modes = append(modes, otherMode(ar.Mode))
		}
		for _, m := range modes {
			a := ar
			a.Mode = m
			ops = append(ops, coldOp{due: time.Duration(t * float64(time.Second)), ar: a, body: encodeRequest(a, false), ref: pick.Float64() < refShare})
		}
	}
	return ops
}

// coldTarget is one in-process copaserve on loopback.
type coldTarget struct {
	srv    *serve.Server
	lb     *loopback
	client *http.Client
}

func startCold() (*coldTarget, error) {
	srv := serve.New(serve.DefaultConfig())
	lb, err := listen(api.NewHandler(srv))
	if err != nil {
		srv.Close()
		return nil, err
	}
	t := &coldTarget{srv: srv, lb: lb, client: newClient()}
	// Warm the evaluator on every scenario, and the connection, as a
	// server that has been up for a while would be. The warm-up requests
	// go one at a time: sent together, two of them sometimes coalesce
	// into one worker's batch and run back to back while the other worker
	// idles, which made set-up time bimodal.
	for i, sc := range []string{"4x2", "3x2", "1x1", "4x2", "3x2", "1x1"} {
		rep, err := post(t.client, lb.url, encodeRequest(api.AllocateRequest{Scenario: sc, Seed: int64(i), Mode: "max"}, false), false)
		if err == nil && rep.status != 200 {
			err = fmt.Errorf("status %d", rep.status)
		}
		if err != nil {
			t.close()
			return nil, fmt.Errorf("serve-cold warm-up: %w", err)
		}
	}
	return t, nil
}

func (t *coldTarget) close() {
	t.client.CloseIdleConnections()
	t.lb.close()
	t.srv.Close()
}

// coldReply is one serve-cold request's outcome.
type coldReply struct {
	rep  reply
	err  error
	lat  float64 // ms from due time to the last response byte
	late float64 // ms the send ran behind its due time
}

// driveOpen sends ops on their schedule from two client goroutines. A
// request due while both are busy is sent as soon as one frees up, and
// its latency still counts from its due time.
func driveOpen(t *coldTarget, ops []coldOp) []coldReply {
	out := make([]coldReply, len(ops))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				rep, err := post(t.client, t.lb.url, ops[i].body, false)
				out[i] = coldReply{rep: rep, err: err,
					lat:  float64(time.Since(due)) / float64(time.Millisecond),
					late: float64(sent.Sub(due)) / float64(time.Millisecond)}
			}
		}()
	}
	wg.Wait()
	return out
}

// verifyCold checks every serve-cold answer and re-derives the sampled
// ones with an in-process serve.Allocate. It returns per-op results and
// the decoded responses (nil where the op failed).
func verifyCold(ops []coldOp, reps []coldReply) ([]opResult, []*api.AllocateResponse) {
	ref := serve.New(serve.DefaultConfig())
	defer ref.Close()
	res := make([]opResult, len(ops))
	resps := make([]*api.AllocateResponse, len(ops))
	for i, op := range ops {
		r := reps[i]
		res[i] = opResult{latMS: r.lat}
		if r.err != nil || r.rep.status != 200 {
			continue
		}
		resp, err := decodeReply(r.rep.body, false)
		if err == nil {
			err = checkResponse(resp, parseMode(op.ar.Mode))
		}
		if err == nil && op.ref {
			err = matchReference(ref, op.ar, resp.Cached, r.rep.body)
		}
		if err != nil {
			res[i].wrong = true
			continue
		}
		res[i].ok = true
		resps[i] = &resp
	}
	return res, resps
}

// matchReference compares a served body with api.ToResponse of an
// in-process allocation of the same request, encoded as the handler
// encodes it.
func matchReference(ref *serve.Server, ar api.AllocateRequest, cached bool, body []byte) error {
	req, err := api.ParseRequest(ar)
	if err != nil {
		return err
	}
	res, _, err := ref.Allocate(context.Background(), req)
	if err != nil {
		return fmt.Errorf("reference allocate: %w", err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(api.ToResponse(res, cached)); err != nil {
		return err
	}
	if !bytes.Equal(want.Bytes(), body) {
		return fmt.Errorf("seed %d %s: response differs from in-process reference", ar.Seed, ar.Mode)
	}
	return nil
}

// coldQuality is the quality over every answered op; the op set is
// fixed by the seed.
func coldQuality(ops []coldOp, resps []*api.AllocateResponse) *quality {
	q := &quality{}
	for i, r := range resps {
		if r != nil {
			q.add(*r, parseMode(ops[i].ar.Mode))
		}
	}
	return q
}

func runServeCold(o options) (*report, error) {
	var setups []float64
	var t *coldTarget
	for i := 0; i < o.setups; i++ {
		if t != nil {
			t.close()
		}
		settle()
		a := sampleProc()
		var err error
		if t, err = startCold(); err != nil {
			return nil, err
		}
		setups = append(setups, ownSeconds(a, sampleProc()))
	}
	defer t.close()
	worldBase := o.seed << 24

	obs.SetTraceSampling(0)
	if !o.trace {
		ops := coldSchedule(o.seed, o.seconds, worldBase)
		settle()
		w := openWindow()
		reps := driveOpen(t, ops)
		w.close()
		res, resps := verifyCold(ops, reps)
		rep := &report{metrics: endToEndMetrics(res, w, setups, coldQuality(ops, resps), false)}
		rep.tally(res)
		return rep, nil
	}

	// Untraced reference phase on its own worlds, then the traced run.
	refOps := coldSchedule(o.seed^0x5eed, o.seconds/3, worldBase|1<<23)
	refRes, _ := verifyCold(refOps, driveOpen(t, refOps))
	obs.SetTraceSampling(1)
	defer obs.SetTraceSampling(0)
	ops := coldSchedule(o.seed, o.seconds, worldBase)
	settle()
	col := newCollector(obs.Tracing())
	col.start(5 * time.Millisecond)
	d := regDelta{a: snapshot()}
	w := openWindow()
	reps := driveOpen(t, ops)
	w.close()
	d.b = snapshot()
	col.finish()
	obs.SetTraceSampling(0)
	res, resps := verifyCold(ops, reps)
	m := zeroLayers()
	serveLayers(m, col.stats, d, len(ops))
	evaluatorLayers(m, d, len(ops))
	bodies := make([][]byte, len(ops))
	var answers []api.AllocateResponse
	var served [][]byte
	infeasible := 0
	for i, op := range ops {
		bodies[i] = op.body
		if resps[i] != nil {
			answers = append(answers, *resps[i])
			served = append(served, reps[i].rep.body)
			if _, ok := resps[i].Outcomes[strategy.KindConcNull.String()]; !ok {
				infeasible++
			}
		}
	}
	m["strategy.nulling_infeasible_frac"] = ratio(float64(infeasible), float64(len(answers)))
	m["api.resp_bytes_json"] = meanLen(served) // JSON only: no binary answer is served
	if err := apiProbes(m, bodies, nil, answers); err != nil {
		return nil, err
	}
	if err := evaluatorProbes(m, firstWorld(ops, "4x2")); err != nil {
		return nil, err
	}
	late := make([]float64, len(reps))
	for i, r := range reps {
		late[i] = r.late
	}
	m["loadgen.late_p99_ms"] = quantile(late, 0.99)
	tracedCommon(m, col, w, res, refRes, setups, o, "serve-cold")
	rep := &report{metrics: m}
	rep.tally(res)
	return rep, nil
}

// firstWorld is the seed of the first scheduled world of a scenario, so
// layer probes run on an input the workload itself served.
func firstWorld(ops []coldOp, scenario string) int64 {
	for _, op := range ops {
		if op.ar.Scenario == scenario {
			return op.ar.Seed
		}
	}
	return ops[0].ar.Seed
}

// meanLen is the mean size of the bodies, 0 for none.
func meanLen(bodies [][]byte) float64 {
	n := make([]float64, len(bodies))
	for i, b := range bodies {
		n[i] = float64(len(b))
	}
	return mean(n)
}

// serveLayers fills the api and serve metrics from the traced run's
// request trees and the registry delta over it.
func serveLayers(m map[string]float64, ts *treeStats, d regDelta, ops int) {
	n := float64(ops)
	m["api.handler_self_us"] = ts.selfUS("http.allocate")
	m["serve.allocate_self_us"] = ts.selfUS("serve.allocate")
	m["serve.cache_us"] = ts.durUS("serve.cache")
	m["serve.queue_wait_ms"] = ts.durUS("serve.queue") / 1e3
	m["serve.batch_wait_ms"] = ts.durUS("serve.batch") / 1e3
	m["serve.evaluate_ms"] = ts.durUS("serve.evaluate") / 1e3
	hits, misses := d.counter("copa.serve.cache_hits"), d.counter("copa.serve.cache_misses")
	m["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["serve.evictions_per_op"] = d.counter("copa.serve.cache_evictions") / n
	m["serve.batch_size_mean"] = d.histMean("copa.serve.batch_size")
	reqs := d.counter("copa.serve.requests")
	m["serve.shared_eval_ratio"] = ratio(d.counter("copa.serve.batch_shared_evals")+d.counter("copa.serve.inflight_dedup"), reqs)
	m["serve.shed_frac"] = ratio(d.counter("copa.serve.shed_queue_full")+d.counter("copa.serve.shed_expired")+d.counter("copa.serve.shed_closed"), reqs)
}
