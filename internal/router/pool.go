package router

import (
	"net/http"
	"sync/atomic"
	"time"
)

// The backend pool: one entry per copaserve process, health-checked
// actively (a /v1/healthz probe loop) and passively (transport
// failures mark a backend down immediately, so the request after a
// backend dies already prefers its neighbor). Pool membership changes
// swap an immutable poolState pointer — in-flight requests keep the
// state they started with, so join/leave never drops a request that
// was already dispatched.

// backend is one copaserve process the router shards onto.
type backend struct {
	url    string
	client *http.Client

	// healthy flips passively on transport errors and actively from
	// the probe loop. A down backend is deprioritized, not removed:
	// if every backend is down the router still tries them in ring
	// order rather than shedding outright.
	healthy atomic.Bool
	// probeFails counts consecutive active-probe failures; only the
	// probe loop touches it.
	probeFails int
}

func (b *backend) markDown() { b.healthy.Store(false) }
func (b *backend) markUp()   { b.healthy.Store(true) }

// poolState is the immutable (backends, ring) pair a request routes
// against. Swapping the backend set stores a fresh one atomically.
type poolState struct {
	backends []*backend
	ring     *ring
}

// preference returns key's backends in ring order, healthy ones
// first (order preserved within each class). The slice is freshly
// allocated per call; callers own it.
func (ps *poolState) preference(key string) []*backend {
	order := ps.ring.preference(key)
	out := make([]*backend, 0, len(order))
	for _, i := range order {
		if ps.backends[i].healthy.Load() {
			out = append(out, ps.backends[i])
		}
	}
	for _, i := range order {
		if !ps.backends[i].healthy.Load() {
			out = append(out, ps.backends[i])
		}
	}
	return out
}

func (ps *poolState) healthyCount() int {
	n := 0
	for _, b := range ps.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

// newPoolState builds backends (reusing matching entries from prev so
// health state and connections survive a membership change) and their
// ring.
func (rt *Router) newPoolState(urls []string, prev *poolState) *poolState {
	prevBy := map[string]*backend{}
	if prev != nil {
		for _, b := range prev.backends {
			prevBy[b.url] = b
		}
	}
	ps := &poolState{ring: buildRing(urls, rt.cfg.Vnodes)}
	for _, u := range urls {
		if b, ok := prevBy[u]; ok {
			ps.backends = append(ps.backends, b)
			continue
		}
		b := &backend{url: u, client: &http.Client{Transport: rt.transportFor(u)}}
		b.markUp()
		ps.backends = append(ps.backends, b)
	}
	return ps
}

func (rt *Router) transportFor(url string) http.RoundTripper {
	if rt.cfg.TransportFor != nil {
		if t := rt.cfg.TransportFor(url); t != nil {
			return t
		}
	}
	if rt.cfg.Transport != nil {
		return rt.cfg.Transport
	}
	return http.DefaultTransport
}

// healthLoop probes every backend's /v1/healthz at HealthInterval. A
// backend goes down after two consecutive probe failures (or one
// passive transport failure) and comes back after a single good
// probe, so a drained-and-restarted copaserve rejoins within one
// interval without dropping anything: its in-flight requests finished
// under the old poolState before the process exited.
func (rt *Router) healthLoop() {
	defer rt.healthWG.Done()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stopHealth:
			return
		case <-t.C:
		}
		ps := rt.state.Load()
		for _, b := range ps.backends {
			if rt.probe(b) {
				b.probeFails = 0
				if !b.healthy.Load() {
					mBackendRecovered.Inc()
					b.markUp()
				}
			} else {
				b.probeFails++
				if b.probeFails >= 2 && b.healthy.Load() {
					mBackendDown.Inc()
					b.markDown()
				}
			}
		}
		gBackendsHealthy.Set(float64(ps.healthyCount()))
	}
}

// probe reports whether one backend answered its health check with
// 200. A 503 — copaserve draining — reads as unhealthy, which is the
// graceful-leave path: the router routes new work elsewhere while the
// backend finishes what it already accepted.
func (rt *Router) probe(b *backend) bool {
	req, err := http.NewRequest(http.MethodGet, b.url+"/v1/healthz", nil)
	if err != nil {
		return false
	}
	client := &http.Client{Transport: b.client.Transport, Timeout: rt.cfg.HealthTimeout}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
