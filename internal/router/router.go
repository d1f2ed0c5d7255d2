// Package router is copaserve's sharded front tier: an HTTP reverse
// proxy that consistent-hashes each allocation request's full cache
// identity (serve.ShardKey — scenario, seed, mode, impairments, CSI
// age bucket/epoch) across N copaserve backends, so the fleet's LRU
// result caches shard the key space instead of each duplicating it.
//
// Three mechanisms turn the hash ring into a serving tier (DESIGN
// §15):
//
//   - Health-checked backend pools: active /v1/healthz probes plus
//     passive transport-failure detection deprioritize a dead or
//     draining backend without dropping requests already in flight to
//     it; membership changes swap an immutable poolState, so joins
//     and leaves are race-free by construction.
//
//   - Hedged requests: when the home shard has not answered within a
//     p99-derived latency budget, the request is duplicated to the
//     next backend on the ring; the first response wins and the loser
//     is cancelled through its context. Deterministic worlds make the
//     duplicate safe — both backends compute identical bytes.
//
//   - Priority-class admission: interactive allocations are shed
//     last, campaign/fleet backfill first, via a two-watermark
//     in-flight gate in front of the serve layer's own queue/deadline
//     machinery (each backend still applies DESIGN §9 admission).
//
// The router parses a request body only far enough to compute its
// shard key, then forwards the original bytes verbatim — responses
// through the router are byte-identical to direct copaserve responses,
// which is what scripts/router_smoke.sh cmp's.
package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"copa/internal/api"
	"copa/internal/obs"
	"copa/internal/serve"
)

// Priority classes. The wire value travels in the priority header
// (cliflags.RouterFlags.PriorityHeader, default X-Copa-Priority);
// absent means interactive, so plain copaserve clients keep first-
// class service through the router unchanged.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)

// Config parameterizes a Router. The zero value of any field selects
// the default documented on it.
type Config struct {
	// Backends are the copaserve base URLs ("http://host:port") the
	// ring shards onto. At least one is required.
	Backends []string
	// Coherence must match the backends' CSI coherence time so the
	// router's age bucketing agrees with the cache key (default: the
	// shared serve/strategy default).
	Coherence time.Duration
	// MaxInflight is the interactive admission watermark: the router
	// sheds any request once this many are in flight (default 256).
	MaxInflight int
	// BatchShare is the fraction of MaxInflight batch-class requests
	// may occupy; beyond it batch sheds while interactive still admits
	// (default 0.5).
	BatchShare float64
	// PriorityHeader names the request header carrying the priority
	// class (default "X-Copa-Priority").
	PriorityHeader string
	// HedgeBudget fixes the hedge trigger latency. 0 derives it per
	// request from the observed backend p99, clamped to
	// [HedgeMin, HedgeMax] (default: adaptive).
	HedgeBudget time.Duration
	// HedgeDefault seeds the adaptive budget before enough samples
	// exist (default 50ms).
	HedgeDefault time.Duration
	// HedgeMin/HedgeMax clamp the adaptive budget (defaults 2ms / 1s).
	HedgeMin time.Duration
	HedgeMax time.Duration
	// AttemptTimeout bounds one backend attempt (default 30s).
	AttemptTimeout time.Duration
	// HealthInterval is the active health-probe period (default 500ms;
	// negative disables active probing — passive detection still runs).
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (default 1s).
	HealthTimeout time.Duration
	// Vnodes is the number of ring points per backend (default 128).
	Vnodes int
	// Transport overrides the backend HTTP transport (default
	// http.DefaultTransport). TransportFor, when non-nil, wins per
	// backend URL — the fault-injection seam the degraded-backend load
	// test wraps a fleet.FaultyTransport-style RoundTripper through.
	Transport    http.RoundTripper
	TransportFor func(backendURL string) http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.BatchShare <= 0 || c.BatchShare > 1 {
		c.BatchShare = 0.5
	}
	if c.PriorityHeader == "" {
		c.PriorityHeader = "X-Copa-Priority"
	}
	if c.HedgeDefault <= 0 {
		c.HedgeDefault = 50 * time.Millisecond
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 2 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.Vnodes <= 0 {
		c.Vnodes = defaultVnodes
	}
	return c
}

// Router is the front tier. Create with New; it is an http.Handler
// factory (Handler) plus the pool/hedging machinery behind it.
type Router struct {
	cfg Config

	state      atomic.Pointer[poolState]
	lat        latencyTracker
	inflight   atomic.Int64
	batchInfl  atomic.Int64
	draining   atomic.Bool
	stopHealth chan struct{}
	healthWG   sync.WaitGroup
}

// New builds a Router over cfg.Backends and starts its health loop.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: at least one backend required")
	}
	rt := &Router{cfg: cfg, stopHealth: make(chan struct{})}
	rt.state.Store(rt.newPoolState(cfg.Backends, nil))
	gBackends.Set(float64(len(cfg.Backends)))
	gBackendsHealthy.Set(float64(len(cfg.Backends)))
	if cfg.HealthInterval > 0 {
		rt.healthWG.Add(1)
		go rt.healthLoop()
	}
	return rt, nil
}

// Backends returns the current backend URLs in ring-build order.
func (rt *Router) Backends() []string {
	ps := rt.state.Load()
	out := make([]string, len(ps.backends))
	for i, b := range ps.backends {
		out[i] = b.url
	}
	return out
}

// SetDraining flips the router into drain mode: new allocate requests
// shed with 503 and the health endpoint reports draining, so an
// upstream balancer stops sending traffic while in-flight requests
// finish.
func (rt *Router) SetDraining(v bool) { rt.draining.Store(v) }

// Close stops the health loop. In-flight requests are unaffected.
func (rt *Router) Close() {
	select {
	case <-rt.stopHealth:
	default:
		close(rt.stopHealth)
	}
	rt.healthWG.Wait()
}

// BackendStatus is one backend's health as /v1/healthz reports it.
type BackendStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// Stats is the router's point-in-time operational reading.
type Stats struct {
	Backends      []BackendStatus `json:"backends"`
	Healthy       int             `json:"healthy"`
	Inflight      int64           `json:"inflight"`
	MaxInflight   int             `json:"max_inflight"`
	BatchLimit    int             `json:"batch_limit"`
	HedgeBudgetMS float64         `json:"hedge_budget_ms"`
	// ObservedP99MS is the measured backend p99 the adaptive budget
	// derives from (0 until enough samples exist).
	ObservedP99MS float64 `json:"observed_p99_ms"`
	Draining      bool    `json:"draining"`
}

// Stats reports the router's current operational state.
func (rt *Router) Stats() Stats {
	ps := rt.state.Load()
	st := Stats{
		Healthy:       ps.healthyCount(),
		Inflight:      rt.inflight.Load(),
		MaxInflight:   rt.cfg.MaxInflight,
		BatchLimit:    rt.batchLimit(),
		HedgeBudgetMS: float64(rt.hedgeBudget()) / float64(time.Millisecond),
		ObservedP99MS: float64(rt.lat.quantile(0.99)) / float64(time.Millisecond),
		Draining:      rt.draining.Load(),
	}
	for _, b := range ps.backends {
		st.Backends = append(st.Backends, BackendStatus{URL: b.url, Healthy: b.healthy.Load()})
	}
	return st
}

func (rt *Router) batchLimit() int {
	return int(float64(rt.cfg.MaxInflight) * rt.cfg.BatchShare)
}

func (rt *Router) hedgeBudget() time.Duration {
	if rt.cfg.HedgeBudget > 0 {
		return rt.cfg.HedgeBudget
	}
	return rt.lat.hedgeBudget(rt.cfg.HedgeDefault, rt.cfg.HedgeMin, rt.cfg.HedgeMax)
}

// Handler routes the front tier: the proxied allocation endpoint, the
// router's own health probe, and the obs debug endpoints.
func (rt *Router) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/allocate", rt.handleAllocate)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		st := rt.Stats()
		status := http.StatusOK
		if st.Draining {
			status = http.StatusServiceUnavailable
		}
		api.WriteJSON(w, status, struct {
			Stats
			Build obs.BuildInfo `json:"build"`
		}{st, obs.ReadBuildInfo()})
	})
	dbg := obs.DebugMux()
	mux.Handle("/debug/", dbg)
	mux.Handle("/metrics", dbg)
	return mux
}

// admit applies the two-watermark priority gate. It returns the
// admitted class ("" means shed, with the 503 already written).
func (rt *Router) admit(w http.ResponseWriter, r *http.Request) (string, bool) {
	class := r.Header.Get(rt.cfg.PriorityHeader)
	switch class {
	case "", PriorityInteractive:
		class = PriorityInteractive
	default:
		// Anything that is not explicitly interactive sheds first:
		// campaign/fleet backfill marks itself batch, and unknown
		// classes are treated as batch rather than rejected so a
		// newer client with a finer class taxonomy degrades safely.
		class = PriorityBatch
	}
	if rt.draining.Load() {
		mShedDraining.Inc()
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusServiceUnavailable, "router draining")
		return "", false
	}
	n := rt.inflight.Add(1)
	gInflight.Set(float64(n))
	if class == PriorityBatch {
		bn := rt.batchInfl.Add(1)
		if n > int64(rt.batchLimit()) || bn > int64(rt.batchLimit()) {
			rt.release(class)
			mShedBatch.Inc()
			w.Header().Set("Retry-After", "1")
			api.WriteError(w, http.StatusServiceUnavailable, "router at batch capacity")
			return "", false
		}
		mAdmitBatch.Inc()
		return class, true
	}
	if n > int64(rt.cfg.MaxInflight) {
		rt.inflight.Add(-1)
		mShedInteractive.Inc()
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusServiceUnavailable, "router at capacity")
		return "", false
	}
	mAdmitInteract.Inc()
	return class, true
}

func (rt *Router) release(class string) {
	if class == PriorityBatch {
		rt.batchInfl.Add(-1)
	}
	gInflight.Set(float64(rt.inflight.Add(-1)))
}

func (rt *Router) handleAllocate(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	defer mRequestSeconds.Begin().End()
	class, ok := rt.admit(w, r)
	if !ok {
		return
	}
	defer rt.release(class)

	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		mBadRequests.Inc()
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Parse just far enough to shard: the request's cache identity.
	ar, err := api.DecodeRequestBody(r.Header.Get("Content-Type"), body)
	if err != nil {
		mBadRequests.Inc()
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sreq, err := api.ParseRequest(ar)
	if err != nil {
		mBadRequests.Inc()
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := serve.ShardKey(sreq, rt.cfg.Coherence)

	ctx := obs.ExtractHTTP(r.Context(), r.Header)
	ctx, span := obs.StartSpan(ctx, "router.allocate")
	if sc := span.Context(); sc.Valid() {
		w.Header().Set(obs.TraceparentHeader, sc.Traceparent())
	}
	span.SetAttr("scenario", ar.Scenario)
	span.SetAttr("class", class)

	prefs := rt.state.Load().preference(key)
	res, err := rt.dispatch(ctx, prefs, r.Header, body)
	span.EndErr(err)
	if err != nil {
		mExhausted.Inc()
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusBadGateway, "no backend answered: %v", err)
		return
	}
	// Forward the winning backend's response verbatim (byte-identical
	// to a direct copaserve response); only the traceparent header is
	// the router's own, set above, naming the shared TraceID.
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := res.hdr.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// attemptResult is one backend attempt's outcome. The body is fully
// buffered before the result is published, so the dispatcher can
// cancel every attempt context the moment a winner exists without
// truncating the winner's body.
type attemptResult struct {
	b      *backend
	status int
	hdr    http.Header
	body   []byte
	err    error
	hedged bool
}

// win reports whether the attempt should be returned to the client:
// the backend answered and is not in a retryable server-error state.
// 5xx (including 503 queue-full shedding) fails over to the next
// backend on the ring; 2xx–4xx are authoritative.
func (a attemptResult) win() bool { return a.err == nil && a.status < 500 }

var errNoBackends = errors.New("router: no backends configured")

// dispatch runs the hedging state machine (DESIGN §15): launch the
// home-shard attempt; on failure, fail over to the next preference
// immediately; on silence past the hedge budget, duplicate to the
// next preference; first winning response cancels the rest.
func (rt *Router) dispatch(ctx context.Context, prefs []*backend, hdr http.Header, body []byte) (attemptResult, error) {
	if len(prefs) == 0 {
		return attemptResult{}, errNoBackends
	}
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll() // safe: winners buffer their body before publishing
	results := make(chan attemptResult, len(prefs))
	launched, pending := 0, 0
	launch := func(hedged bool) {
		b := prefs[launched]
		launched++
		pending++
		actx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
		go func() {
			defer cancel()
			results <- rt.attempt(actx, b, hdr, body, hedged)
		}()
	}
	launch(false)
	hedge := time.NewTimer(rt.hedgeBudget())
	defer hedge.Stop()
	var lastFail attemptResult
	for {
		select {
		case res := <-results:
			pending--
			if res.win() {
				if res.hedged {
					mHedgeWins.Inc()
				}
				return res, nil
			}
			lastFail = res
			if !errors.Is(res.err, context.Canceled) {
				mBackendErrors.Inc()
			}
			if launched < len(prefs) {
				// Fail over immediately — a dead backend should cost
				// one connection error, not a hedge budget.
				mRetries.Inc()
				launch(res.hedged)
			} else if pending == 0 {
				if lastFail.err != nil {
					return attemptResult{}, lastFail.err
				}
				// Every backend answered with a 5xx; forward the last
				// one rather than synthesizing our own.
				return lastFail, nil
			}
		case <-hedge.C:
			if launched < len(prefs) {
				mHedges.Inc()
				launch(true)
			}
		case <-ctx.Done():
			return attemptResult{}, ctx.Err()
		}
	}
}

// attempt proxies one request to one backend and buffers the full
// response. Transport failures (other than our own cancellation) mark
// the backend down passively so the very next request prefers its
// ring neighbor.
func (rt *Router) attempt(ctx context.Context, b *backend, hdr http.Header, body []byte, hedged bool) attemptResult {
	res := attemptResult{b: b, hedged: hedged}
	sample := mBackendSeconds.Begin()
	sp := obs.ChildSpan(ctx, "router.attempt")
	sp.SetAttr("backend", b.url)
	if hedged {
		sp.SetAttr("hedged", "true")
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/allocate", bytes.NewReader(body))
	if err != nil {
		res.err = err
		sp.EndErr(err)
		return res
	}
	for _, h := range []string{"Content-Type", "Accept"} {
		if v := hdr.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	// Propagate this attempt's span, not the request's, so the backend's
	// span nests under the attempt that carried it, hedges included. The
	// header comes straight from the span's context: deriving a context
	// per attempt would cost two allocations on the cached-hit path.
	if tp := sp.Context().Traceparent(); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	} else {
		obs.InjectHTTP(ctx, req.Header)
	}
	resp, err := b.client.Do(req)
	if err == nil {
		res.status = resp.StatusCode
		res.hdr = resp.Header
		res.body, err = io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
	}
	res.err = err
	sp.EndErr(err)
	if res.win() {
		sample.End()
		rt.lat.record(time.Since(start))
		b.markUp()
	} else if err != nil && !errors.Is(err, context.Canceled) {
		b.markDown()
	}
	return res
}

// String renders the router's shape for startup logs.
func (rt *Router) String() string {
	return fmt.Sprintf("router(backends=%d max_inflight=%d batch_limit=%d hedge=%s)",
		len(rt.state.Load().backends), rt.cfg.MaxInflight, rt.batchLimit(), rt.describeHedge())
}

func (rt *Router) describeHedge() string {
	if rt.cfg.HedgeBudget > 0 {
		return rt.cfg.HedgeBudget.String()
	}
	return "p99-adaptive"
}
