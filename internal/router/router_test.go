package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"copa/internal/api"
	"copa/internal/obs"
	"copa/internal/serve"
)

// newBackend starts a real copaserve handler (serve.Server behind
// api.NewHandler) and returns its test server.
func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 1, CacheEntries: 256})
	ts := httptest.NewServer(api.NewHandler(srv))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func newFleet(t *testing.T, n int) []*httptest.Server {
	t.Helper()
	fleet := make([]*httptest.Server, n)
	for i := range fleet {
		fleet[i] = newBackend(t)
	}
	return fleet
}

func urls(fleet []*httptest.Server) []string {
	out := make([]string, len(fleet))
	for i, ts := range fleet {
		out[i] = ts.URL
	}
	return out
}

func newTestRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1 // active probing off unless a test wants it
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return rt, ts
}

func allocBody(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"scenario":"4x2","seed":%d}`, seed))
}

func postAllocate(t *testing.T, base string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/allocate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", api.ContentTypeJSON)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestRouterByteIdentical: the response through the router must be
// byte-for-byte what a direct copaserve returns for the same request —
// the contract scripts/router_smoke.sh cmp's. Cached (second) responses
// are compared so the "cached" field agrees on both paths.
func TestRouterByteIdentical(t *testing.T) {
	fleet := newFleet(t, 3)
	direct := newBackend(t)
	_, ts := newTestRouter(t, Config{Backends: urls(fleet)})

	for seed := int64(0); seed < 8; seed++ {
		body := allocBody(seed)
		var viaRouter, viaDirect []byte
		for i := 0; i < 2; i++ { // second POST is the cached one
			resp, data := postAllocate(t, ts.URL, body, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("router seed %d: status %d: %s", seed, resp.StatusCode, data)
			}
			viaRouter = data
		}
		for i := 0; i < 2; i++ {
			resp, data := postAllocate(t, direct.URL, body, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("direct seed %d: status %d: %s", seed, resp.StatusCode, data)
			}
			viaDirect = data
		}
		if !bytes.Equal(viaRouter, viaDirect) {
			t.Errorf("seed %d: router and direct responses differ:\n router %s\n direct %s",
				seed, viaRouter, viaDirect)
		}
	}
}

// TestRouterShardsNotDuplicates: distinct keys spread across the fleet
// and each lands in exactly one backend's cache — total cached entries
// equals the distinct key count, not keys × backends.
func TestRouterShardsNotDuplicates(t *testing.T) {
	fleet := newFleet(t, 3)
	_, ts := newTestRouter(t, Config{
		Backends:    urls(fleet),
		HedgeBudget: 10 * time.Second, // no hedging: every key hits exactly one backend
	})

	const distinct = 48
	for seed := int64(0); seed < distinct; seed++ {
		for i := 0; i < 2; i++ {
			resp, data := postAllocate(t, ts.URL, allocBody(seed), nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, data)
			}
		}
	}

	total := 0
	for i, b := range fleet {
		resp, err := http.Get(b.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var hz api.HealthzResponse
		err = json.NewDecoder(resp.Body).Decode(&hz)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if hz.Cache.Entries == 0 {
			t.Errorf("backend %d received no shard of the key space", i)
		}
		total += hz.Cache.Entries
	}
	if total != distinct {
		t.Errorf("fleet caches hold %d entries for %d distinct keys — caches are duplicating, not sharding", total, distinct)
	}
}

// TestRouterFailoverCoversDeadBackend: with one of three backends hard
// down (connection refused) and no active health loop, passive
// detection plus immediate failover must keep every request succeeding.
func TestRouterFailoverCoversDeadBackend(t *testing.T) {
	fleet := newFleet(t, 3)
	dead := newBackend(t)
	dead.Close() // connection refused from the start
	backends := append(urls(fleet[:2]), dead.URL)

	_, ts := newTestRouter(t, Config{Backends: backends})
	for seed := int64(0); seed < 24; seed++ {
		resp, data := postAllocate(t, ts.URL, allocBody(seed), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, data)
		}
	}
}

// TestRouterHedgesSlowBackend: a backend that accepts but never
// answers within the hedge budget must not stall its share of the key
// space — the hedge duplicates to the ring neighbor and wins.
func TestRouterHedgesSlowBackend(t *testing.T) {
	healthy := newBackend(t)
	stall := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // holds every allocate until cancelled or the test ends
		case <-stall:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	defer close(stall)

	hedges0, wins0 := mHedges.Value(), mHedgeWins.Value()
	_, ts := newTestRouter(t, Config{
		Backends:    []string{slow.URL, healthy.URL},
		HedgeBudget: 5 * time.Millisecond,
	})
	for seed := int64(0); seed < 16; seed++ {
		resp, data := postAllocate(t, ts.URL, allocBody(seed), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, data)
		}
	}
	if mHedges.Value() == hedges0 {
		t.Error("no hedges fired though one backend stalled every request")
	}
	if mHedgeWins.Value() == wins0 {
		t.Error("no hedge ever won though the stalled backend never answers")
	}
}

// TestRouterPriorityShedOrder: batch sheds at its watermark while
// interactive keeps admitting up to MaxInflight; interactive sheds
// only when the router is truly full.
func TestRouterPriorityShedOrder(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	blocked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		select {
		case <-release:
		case <-r.Context().Done():
		}
		w.Header().Set("Content-Type", api.ContentTypeJSON)
		w.Write([]byte(`{}`))
	}))
	defer blocked.Close()
	awaitStarted := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case <-started:
			case <-time.After(5 * time.Second):
				t.Fatalf("backend saw only %d of %d expected requests", i, n)
			}
		}
	}

	_, ts := newTestRouter(t, Config{
		Backends:    []string{blocked.URL},
		MaxInflight: 4,
		BatchShare:  0.5, // batch watermark: 2
		HedgeBudget: time.Minute,
	})

	// Fill the router with 3 blocked interactive requests (3 < 4, all
	// admitted; and 3 > batch watermark 2, so batch must now shed).
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			resp, _ := postAllocate(t, ts.URL, allocBody(seed), nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("blocked interactive seed %d: status %d", seed, resp.StatusCode)
			}
		}(int64(i))
	}
	awaitStarted(3) // all 3 are in flight inside the backend

	// Batch sheds first.
	resp, _ := postAllocate(t, ts.URL, allocBody(100), map[string]string{"X-Copa-Priority": PriorityBatch})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("batch request at capacity: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	// Unknown classes count as batch (shed first), not as interactive.
	resp, _ = postAllocate(t, ts.URL, allocBody(101), map[string]string{"X-Copa-Priority": "bulk-v2"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("unknown-class request: status %d, want 503 (batch treatment)", resp.StatusCode)
	}

	// Interactive still has headroom (4th slot).
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postAllocate(t, ts.URL, allocBody(102), nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("4th interactive: status %d", resp.StatusCode)
		}
	}()
	awaitStarted(1)

	// Now the router is full: even interactive sheds.
	resp, _ = postAllocate(t, ts.URL, allocBody(103), map[string]string{"X-Copa-Priority": PriorityInteractive})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("interactive past MaxInflight: status %d, want 503", resp.StatusCode)
	}

	close(release)
	wg.Wait()

	// With capacity released, both classes admit again.
	resp, _ = postAllocate(t, ts.URL, allocBody(104), map[string]string{"X-Copa-Priority": PriorityBatch})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("batch after release: status %d", resp.StatusCode)
	}
}

// TestRouterDraining: SetDraining sheds new work with 503 and flips
// /v1/healthz, the signal an upstream balancer watches.
func TestRouterDraining(t *testing.T) {
	fleet := newFleet(t, 1)
	rt, ts := newTestRouter(t, Config{Backends: urls(fleet)})

	rt.SetDraining(true)
	resp, _ := postAllocate(t, ts.URL, allocBody(1), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining allocate: status %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status %d, want 503", hresp.StatusCode)
	}

	rt.SetDraining(false)
	resp, _ = postAllocate(t, ts.URL, allocBody(1), nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after drain cleared: status %d", resp.StatusCode)
	}
}

// TestRouterSetBackends: joins and leaves swap the pool atomically;
// requests keep succeeding across the change and Backends() reflects
// the new membership.
func TestRouterSetBackends(t *testing.T) {
	fleet := newFleet(t, 3)
	rt, ts := newTestRouter(t, Config{Backends: urls(fleet[:2])})

	if got := rt.Backends(); len(got) != 2 {
		t.Fatalf("initial backends: %v", got)
	}
	for seed := int64(0); seed < 8; seed++ {
		if resp, data := postAllocate(t, ts.URL, allocBody(seed), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("before join, seed %d: %d %s", seed, resp.StatusCode, data)
		}
	}

	// Join a third backend, then leave the first.
	if err := rt.SetBackends(urls(fleet)); err != nil {
		t.Fatal(err)
	}
	if got := rt.Backends(); len(got) != 3 {
		t.Fatalf("after join: %v", got)
	}
	if err := rt.SetBackends(urls(fleet[1:])); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		if resp, data := postAllocate(t, ts.URL, allocBody(seed), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("after leave, seed %d: %d %s", seed, resp.StatusCode, data)
		}
	}
	if err := rt.SetBackends(nil); err == nil {
		t.Error("SetBackends(nil) accepted an empty pool")
	}
}

// TestRouterTracePropagation: a caller-supplied traceparent flows
// through the router so client, router, and backend spans share one
// TraceID, and the backend's parent span is the router.attempt that
// carried the request.
func TestRouterTracePropagation(t *testing.T) {
	var backendTraceparent string
	var mu sync.Mutex
	fleet := newFleet(t, 1)
	capture := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		backendTraceparent = r.Header.Get(obs.TraceparentHeader)
		mu.Unlock()
		// Forward to the real backend so the response is valid.
		resp, err := http.Post(fleet[0].URL+r.URL.Path, r.Header.Get("Content-Type"), r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer capture.Close()

	_, ts := newTestRouter(t, Config{Backends: []string{capture.URL}})

	const inbound = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	resp, data := postAllocate(t, ts.URL, allocBody(1), map[string]string{obs.TraceparentHeader: inbound})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	wantTrace := "0123456789abcdef0123456789abcdef"
	if echoed := resp.Header.Get(obs.TraceparentHeader); !strings.Contains(echoed, wantTrace) {
		t.Errorf("response traceparent %q does not carry inbound TraceID", echoed)
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(backendTraceparent, wantTrace) {
		t.Errorf("backend saw traceparent %q, want TraceID %s", backendTraceparent, wantTrace)
	}
	sent, ok := obs.ParseTraceparent(backendTraceparent)
	if !ok {
		t.Fatalf("backend traceparent %q does not parse", backendTraceparent)
	}
	spans := map[string]obs.SpanRecord{}
	for _, sp := range obs.Tracing().Recent(0) {
		if sp.Trace == wantTrace {
			spans[sp.ID] = sp
		}
	}
	if attempt := spans[sent.SpanID.String()]; attempt.Name != "router.attempt" {
		t.Errorf("backend parent span %s is %q, want router.attempt", sent.SpanID, attempt.Name)
	} else if parent := spans[attempt.Parent]; parent.Name != "router.allocate" {
		t.Errorf("router.attempt parent is %q, want router.allocate", parent.Name)
	}
}

// TestRouterBadRequests: malformed and oversized bodies are rejected
// at the router without consuming a backend attempt.
func TestRouterBadRequests(t *testing.T) {
	fleet := newFleet(t, 1)
	_, ts := newTestRouter(t, Config{Backends: urls(fleet)})

	resp, _ := postAllocate(t, ts.URL, []byte(`{"scenario":"nope"}`), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown scenario: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postAllocate(t, ts.URL, []byte(`not json`), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", resp.StatusCode)
	}
}

// TestRouterBinaryPassthrough: a binary-codec request shards and
// proxies like JSON — the router decodes it only for the shard key and
// forwards the original bytes.
func TestRouterBinaryPassthrough(t *testing.T) {
	fleet := newFleet(t, 2)
	_, ts := newTestRouter(t, Config{Backends: urls(fleet)})

	bin, err := api.EncodeRequestBinary(api.AllocateRequest{Scenario: "4x2", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/allocate", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", api.ContentTypeBinary)
	req.Header.Set("Accept", api.ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	ar, err := api.DecodeResponseBinary(data)
	if err != nil {
		t.Fatalf("response is not binary: %v", err)
	}
	if ar.Selected.Strategy == "" {
		t.Error("binary response missing selected strategy")
	}
}

// TestRouterActiveHealth: the probe loop marks a killed backend down
// (after two failed probes) and a restarted one up (after one good
// probe), visible through Stats.
func TestRouterActiveHealth(t *testing.T) {
	fleet := newFleet(t, 2)
	flaky := newBackend(t)
	rt, _ := newTestRouter(t, Config{
		Backends:       append(urls(fleet), flaky.URL),
		HealthInterval: 10 * time.Millisecond,
	})

	flaky.CloseClientConnections()
	flaky.Close()
	deadline := time.Now().Add(2 * time.Second)
	for rt.Stats().Healthy != 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := rt.Stats().Healthy; got != 2 {
		t.Fatalf("healthy = %d after killing one of three backends, want 2", got)
	}
}

// SetBackends swaps the backend set. Requests already dispatched keep
// the old pool state; new requests route on the new ring. Backends
// present in both sets keep their health state and connections.
func (rt *Router) SetBackends(urls []string) error {
	if len(urls) == 0 {
		return errors.New("router: at least one backend required")
	}
	rt.state.Store(rt.newPoolState(urls, rt.state.Load()))
	gBackends.Set(float64(len(urls)))
	return nil
}
