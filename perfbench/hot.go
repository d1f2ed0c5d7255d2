package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"copa/internal/api"
	"copa/internal/obs"
	"copa/internal/router"
	"copa/internal/serve"
)

const (
	// hotKeys is serve-hot's key space, primed during set-up.
	hotKeys = 128
	// hotBlock is the op block length: each block of hotBlock ops holds
	// one request of each malformed kind, and a run always ends on a block
	// boundary, so the malformed share of every run is exactly
	// len(badKinds)/hotBlock.
	hotBlock = 500
	// hotZipf is the popularity skew over the key space: key i (from 0)
	// is requested with odds proportional to 1/(i+1)^hotZipf. No trace of
	// allocation requests exists to fit it to; 0.8 lies in the range
	// Breslau et al. measured on web proxy traces ("Web Caching and
	// Zipf-like Distributions", INFOCOM 1999: 0.64 to 0.83).
	hotZipf = 0.8
	// hotSetups caps how often serve-hot repeats set-up: priming evaluates
	// every key on both backends, about 4 s on the reference host.
	hotSetups = 3
	// hotMaxRate bounds serve-hot's op rate, to size the result arenas:
	// about eight times the rate of the 2-vCPU reference host. Beyond it
	// results spill to the Go heap.
	hotMaxRate = 80000
)

// badKind is a malformed serve-hot request; every kind must be refused
// with 400.
type badKind struct {
	binary    bool
	nonFinite bool
	mutate    func(*api.AllocateRequest)
}

var badKinds = []badKind{
	{false, false, func(a *api.AllocateRequest) { a.Scenario = "5x5" }},
	{false, false, func(a *api.AllocateRequest) { a.CSIAgeMS = -1 }},
	{true, true, func(a *api.AllocateRequest) { a.CSIAgeMS = math.NaN() }},
	{true, true, func(a *api.AllocateRequest) { a.CSIAgeMS = math.Inf(1) }},
	// A session request with a NaN session time: serve clamps the time to
	// epoch 0, bucket 0, the primed key's own cache entry.
	{true, true, func(a *api.AllocateRequest) { a.Session, a.TimeMS = true, math.NaN() }},
}

// hotKey is one primed request with its recorded cached answers.
type hotKey struct {
	ar   api.AllocateRequest
	req  [2][]byte // request body: [0] JSON, [1] binary
	resp [2][]byte // cached response recorded at priming, per codec
	dec  api.AllocateResponse
}

func encodeRequest(ar api.AllocateRequest, binary bool) []byte {
	var b []byte
	var err error
	if binary {
		b, err = api.EncodeRequestBinary(ar)
	} else {
		b, err = json.Marshal(ar)
	}
	if err != nil {
		panic(err) // short names and plain numbers always encode
	}
	return b
}

// hotKeySet draws the key space. Malformed requests are built on keys of
// age bucket 0, which is where serve buckets a non-finite age.
func hotKeySet(seed int64) (keys []*hotKey, bad [][]byte) {
	g := newWorldGen(seed)
	base := -1
	for i := 0; i < hotKeys; i++ {
		ar, bucket, _ := g.next(seed<<24 | 1<<22 | int64(i))
		if base < 0 && bucket == 0 {
			base = i
		}
		keys = append(keys, &hotKey{ar: ar, req: [2][]byte{encodeRequest(ar, false), encodeRequest(ar, true)}})
	}
	for _, k := range badKinds {
		ar := keys[base].ar
		k.mutate(&ar)
		bad = append(bad, encodeRequest(ar, k.binary))
	}
	return keys, bad
}

// hotOp is one serve-hot request: a key in a codec, or a malformed body.
type hotOp struct {
	key    int
	binary bool
	bad    int // index into badKinds, -1 for a well-formed request
}

// hotGen yields the seed-determined op sequence block by block.
type hotGen struct {
	r   *rand.Rand
	cum []float64 // cumulative key popularity, ending at 1
}

func newHotGen(seed int64) *hotGen {
	g := &hotGen{r: rand.New(rand.NewSource(seed)), cum: make([]float64, hotKeys)}
	sum := 0.0
	for i := range g.cum {
		sum += math.Pow(float64(i+1), -hotZipf)
		g.cum[i] = sum
	}
	for i := range g.cum {
		g.cum[i] /= sum
	}
	return g
}

// key draws a key index by popularity.
func (g *hotGen) key() int {
	return min(sort.SearchFloat64s(g.cum, g.r.Float64()), hotKeys-1)
}

func (g *hotGen) nextBlock() []hotOp {
	b := make([]hotOp, hotBlock)
	for i := range b {
		b[i] = hotOp{key: g.key(), binary: g.r.Intn(2) == 1, bad: -1}
	}
	for k, pos := range g.r.Perm(hotBlock)[:len(badKinds)] {
		b[pos] = hotOp{bad: k, binary: badKinds[k].binary}
	}
	return b
}

// hotTarget is a coparouter in front of two copaserve backends, all on
// loopback in this process.
type hotTarget struct {
	srvs   [2]*serve.Server
	lbs    [2]*loopback
	rt     *router.Router
	front  *loopback
	client *http.Client
}

func startHot(keys []*hotKey) (*hotTarget, error) {
	t := &hotTarget{client: newClient()}
	var urls []string
	for i := range t.srvs {
		t.srvs[i] = serve.New(serve.DefaultConfig())
		lb, err := listen(api.NewHandler(t.srvs[i]))
		if err != nil {
			t.close()
			return nil, err
		}
		t.lbs[i] = lb
		urls = append(urls, lb.url)
	}
	rt, err := router.New(router.Config{Backends: urls})
	if err != nil {
		t.close()
		return nil, err
	}
	t.rt = rt
	if t.front, err = listen(rt.Handler()); err != nil {
		t.close()
		return nil, err
	}
	if err := t.prime(keys); err != nil {
		t.close()
		return nil, fmt.Errorf("priming: %w", err)
	}
	return t, nil
}

func (t *hotTarget) close() {
	t.client.CloseIdleConnections()
	if t.front != nil {
		t.front.close()
	}
	if t.rt != nil {
		t.rt.Close()
	}
	for i := range t.srvs {
		if t.lbs[i] != nil {
			t.lbs[i].close()
		}
		if t.srvs[i] != nil {
			t.srvs[i].Close()
		}
	}
}

// prime evaluates every key once, then records each key's cached answer
// in both codecs and checks it.
func (t *hotTarget) prime(keys []*hotKey) error {
	for pass := 0; pass < 2; pass++ {
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(keys) && errs[g] == nil; i += clients {
					errs[g] = t.primeKey(keys[i], pass == 1)
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// primeKey first evaluates k on both backends, so that a hedged or
// failed-over request is a cache hit too and the evaluator never runs
// after set-up. The second pass records k's cached answer through the
// router in both codecs, and checks that each backend answers with the
// same bytes.
func (t *hotTarget) primeKey(k *hotKey, record bool) error {
	get := func(url string, c int) ([]byte, error) {
		rep, err := post(t.client, url, k.req[c], c == 1)
		if err == nil && rep.status != 200 {
			err = fmt.Errorf("seed %d: status %d", k.ar.Seed, rep.status)
		}
		return rep.body, err
	}
	if !record {
		for _, lb := range t.lbs {
			if _, err := get(lb.url, 0); err != nil {
				return err
			}
		}
		return nil
	}
	for c := range k.resp {
		body, err := get(t.front.url, c)
		if err != nil {
			return err
		}
		k.resp[c] = body
	}
	for _, lb := range t.lbs {
		body, err := get(lb.url, 0)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, k.resp[0]) {
			return fmt.Errorf("seed %d: backends answer with different bytes", k.ar.Seed)
		}
	}
	var dec [2]api.AllocateResponse
	for c := range dec {
		var err error
		if dec[c], err = decodeReply(k.resp[c], c == 1); err != nil {
			return err
		}
	}
	if !reflect.DeepEqual(dec[0], dec[1]) {
		return fmt.Errorf("seed %d: JSON and binary answers differ", k.ar.Seed)
	}
	if !dec[0].Cached {
		return fmt.Errorf("seed %d: second request was not a cache hit", k.ar.Seed)
	}
	if err := checkResponse(dec[0], parseMode(k.ar.Mode)); err != nil {
		return fmt.Errorf("seed %d: %w", k.ar.Seed, err)
	}
	k.dec = dec[0]
	return nil
}

// hotClaims hands out op indices to the closed-loop clients, keeping only
// the current block of ops. After the deadline the run stops at the next
// block boundary.
type hotClaims struct {
	mu       sync.Mutex
	gen      *hotGen
	block    []hotOp
	next     int
	deadline time.Time
	stopped  bool
}

func (c *hotClaims) claim() (int, hotOp, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.next
	if c.stopped || (i%hotBlock == 0 && i > 0 && time.Now().After(c.deadline)) {
		c.stopped = true
		return 0, hotOp{}, false
	}
	if i%hotBlock == 0 {
		c.block = c.gen.nextBlock()
	}
	c.next++
	return i, c.block[i%hotBlock], true
}

// driveClosed runs two closed-loop clients over the op sequence for d,
// rounded up to a whole block.
func driveClosed(t *hotTarget, keys []*hotKey, bad [][]byte, gen *hotGen, d time.Duration) []opResult {
	claims := &hotClaims{gen: gen, deadline: time.Now().Add(d)}
	per := make([][]opResult, clients)
	for g := range per {
		arena, free := opArena(int(d.Seconds()*hotMaxRate)/clients + hotBlock)
		defer free()
		per[g] = arena
	}
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i, op, ok := claims.claim()
				if !ok {
					return
				}
				body := bad[max(op.bad, 0)]
				if op.bad < 0 {
					body = keys[op.key].req[b2i(op.binary)]
				}
				start := time.Now()
				rep, err := post(t.client, t.front.url, body, op.binary)
				r := opResult{latMS: float64(time.Since(start)) / float64(time.Millisecond)}
				switch {
				case err != nil:
				case op.bad >= 0:
					r.ok = rep.status == http.StatusBadRequest
					r.known = badKinds[op.bad].nonFinite
				default:
					r.ok = rep.status == 200 && bytes.Equal(rep.body, keys[op.key].resp[b2i(op.binary)])
					r.wrong = rep.status == 200 && !r.ok
				}
				if !r.ok && op.bad < 0 {
					obs.Logger().Warn("serve-hot answer differs", "op", i, "status", rep.status, "err", err, "body", string(rep.body))
				}
				per[g] = append(per[g], r)
			}
		}(g)
	}
	wg.Wait()
	var res []opResult
	for _, p := range per {
		res = append(res, p...)
	}
	return res
}

// opArena is room for n op results outside the Go heap, and the function
// that returns it. A serve-hot run records a few hundred thousand ops; kept
// on the heap, the records grew the live heap from about 3 MiB to 11 MiB
// over a run, which moved the program's GC pacing and made rss_peak_mb
// follow the op count, with a peak near 60 MiB. Outside the heap they cost
// the resident set only the pages written, 16 bytes an op, and the GC
// never sees them. If the arena cannot be mapped, results go to the heap.
func opArena(n int) ([]opResult, func()) {
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(opResult{})), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, func() {}
	}
	// Unmapping the whole of a live mapping only fails on a bad argument.
	return unsafe.Slice((*opResult)(unsafe.Pointer(&b[0])), n)[:0], func() { _ = syscall.Munmap(b) }
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hotQuality is the quality over the key set, from the answers recorded
// at priming (every well-formed op is checked byte for byte against them).
func hotQuality(keys []*hotKey) *quality {
	q := &quality{}
	for _, k := range keys {
		q.add(k.dec, parseMode(k.ar.Mode))
	}
	return q
}

func runServeHot(o options) (*report, error) {
	keys, bad := hotKeySet(o.seed)
	var setups []float64
	var t *hotTarget
	for i := 0; i < min(o.setups, hotSetups); i++ {
		if t != nil {
			t.close()
		}
		settle()
		a := sampleProc()
		var err error
		if t, err = startHot(keys); err != nil {
			return nil, err
		}
		setups = append(setups, ownSeconds(a, sampleProc()))
	}
	defer t.close()

	obs.SetTraceSampling(0)
	if !o.trace {
		settle()
		w := openWindow()
		res := driveClosed(t, keys, bad, newHotGen(o.seed), o.seconds)
		w.close()
		rep := &report{metrics: endToEndMetrics(res, w, setups, hotQuality(keys), true)}
		rep.tally(res)
		return rep, nil
	}

	refRes := driveClosed(t, keys, bad, newHotGen(o.seed^0x5eed), o.seconds/3)
	obs.SetTraceSampling(1)
	defer obs.SetTraceSampling(0)
	settle()
	col := newCollector(obs.Tracing())
	col.start(5 * time.Millisecond)
	d := regDelta{a: snapshot()}
	w := openWindow()
	res := driveClosed(t, keys, bad, newHotGen(o.seed), o.seconds)
	w.close()
	d.b = snapshot()
	col.finish()
	obs.SetTraceSampling(0)

	m := zeroLayers()
	n := float64(len(res))
	m["router.self_us"] = col.stats.selfUS("router.allocate")
	m["router.proxy_us"] = col.stats.selfUS("router.attempt")
	hedges := d.counter("copa.router.hedges")
	m["router.hedges_per_op"] = hedges / n
	m["router.hedge_win_ratio"] = ratio(d.counter("copa.router.hedge_wins"), hedges)
	m["router.retries_per_op"] = d.counter("copa.router.retries") / n
	m["router.shed_frac"] = ratio(d.counter("copa.router.shed_interactive")+d.counter("copa.router.shed_batch")+d.counter("copa.router.shed_draining"), d.counter("copa.router.requests"))
	serveLayers(m, col.stats, d, len(res))
	evaluatorLayers(m, d, len(res))
	// Every well-formed op was answered with its key's recorded bytes.
	var bodies, binBodies, served, binServed [][]byte
	var answers []api.AllocateResponse
	for _, k := range keys {
		bodies = append(bodies, k.req[0])
		binBodies = append(binBodies, k.req[1])
		answers = append(answers, k.dec)
		served = append(served, k.resp[0])
		binServed = append(binServed, k.resp[1])
	}
	if err := apiProbes(m, bodies, binBodies, answers); err != nil {
		return nil, err
	}
	m["api.resp_bytes_json"] = meanLen(served)
	m["api.resp_bytes_bin"] = meanLen(binServed)
	tracedCommon(m, col, w, res, refRes, setups, o, "serve-hot")
	rep := &report{metrics: m}
	rep.tally(res)
	return rep, nil
}
