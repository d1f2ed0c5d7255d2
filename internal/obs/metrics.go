package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil counter or when instrumentation is off.
func (c *Counter) Add(n uint64) {
	if c == nil || !gate.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the metric name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is a last-write-wins float value.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge or when instrumentation is off.
func (g *Gauge) Set(v float64) {
	if g == nil || !gate.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta to the gauge with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil || !gate.Load() {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Name returns the metric name.
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Histogram is a fixed-bucket histogram: bounds[i] is the inclusive
// upper bound of bucket i, and one overflow bucket catches everything
// above the last bound. Observations are single atomic adds; the total
// count is derived from the buckets at read time, so a snapshot's count
// always equals the sum of its bucket counts — no torn reads.
type Histogram struct {
	name   string
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last = overflow
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

func newHistogram(name string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefValueBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
	}
	return &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. No-op on nil or when instrumentation is
// off. The bucket scan is linear: bucket counts are small and fixed, so
// this stays branch-predictable and allocation-free.
func (h *Histogram) Observe(v float64) {
	if h == nil || !gate.Load() {
		return
	}
	idx := len(h.bounds) // overflow
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveInt records an integer value.
func (h *Histogram) ObserveInt(n int) { h.Observe(float64(n)) }

// Value returns a consistent snapshot of the histogram.
func (h *Histogram) Value() HistogramValue {
	if h == nil {
		return HistogramValue{}
	}
	v := HistogramValue{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		v.Counts[i] = c
		v.Count += c
	}
	return v
}

// Name returns the metric name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// HistogramValue is a point-in-time histogram reading.
type HistogramValue struct {
	// Count is the total number of observations; by construction it
	// equals the sum of Counts.
	Count uint64 `json:"count"`
	// Sum is the (approximate, concurrently accumulated) sum of values.
	Sum float64 `json:"sum"`
	// Bounds are the inclusive bucket upper bounds.
	Bounds []float64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries; the last is the overflow bucket.
	Counts []uint64 `json:"counts"`
}

// Mean returns Sum/Count, or 0 with no observations.
func (v HistogramValue) Mean() float64 {
	if v.Count == 0 {
		return 0
	}
	return v.Sum / float64(v.Count)
}

// Quantile returns an interpolated p-quantile (p in [0,1]) from the
// bucket counts. Values in the overflow bucket report the last bound.
func (v HistogramValue) Quantile(p float64) float64 {
	if v.Count == 0 || len(v.Bounds) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(v.Count)
	var cum float64
	for i, c := range v.Counts {
		next := cum + float64(c)
		if rank <= next && c > 0 {
			if i >= len(v.Bounds) {
				return v.Bounds[len(v.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = v.Bounds[i-1]
			}
			frac := (rank - cum) / float64(c)
			return lo + frac*(v.Bounds[i]-lo)
		}
		cum = next
	}
	return v.Bounds[len(v.Bounds)-1]
}

// Timer is a histogram over durations, recorded in seconds.
type Timer struct {
	h *Histogram
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.h.Observe(d.Seconds())
}

// TimerSample is an in-flight timing started with Begin. It is a value
// type: starting and ending a sample does not allocate.
type TimerSample struct {
	t     *Timer
	start time.Time
}

// Begin starts timing now; call End on the returned sample. When
// instrumentation is off the clock is not even read.
func (t *Timer) Begin() TimerSample {
	if t == nil || !gate.Load() {
		return TimerSample{}
	}
	return TimerSample{t: t, start: time.Now()}
}

// End records the elapsed time since Begin.
func (s TimerSample) End() {
	if s.t == nil {
		return
	}
	s.t.Observe(time.Since(s.start))
}

// Value returns the underlying histogram reading (seconds).
func (t *Timer) Value() HistogramValue {
	if t == nil {
		return HistogramValue{}
	}
	return t.h.Value()
}

// Name returns the metric name.
func (t *Timer) Name() string {
	if t == nil {
		return ""
	}
	return t.h.name
}

// Default bucket layouts.
var (
	// DefTimeBuckets spans 1µs .. ~90s exponentially — wide enough for
	// both a per-topology evaluation and a full scenario run.
	DefTimeBuckets = ExpBuckets(1e-6, 2.5, 20)
	// DefValueBuckets is a generic magnitude ladder for size-like values.
	DefValueBuckets = ExpBuckets(1, 4, 12)
)

// ExpBuckets returns n exponentially spaced bounds start, start*factor, …
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("obs: bad ExpBuckets parameters")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n linearly spaced bounds start, start+width, …
func LinearBuckets(start, width float64, n int) []float64 {
	if n <= 0 || width <= 0 {
		panic("obs: bad LinearBuckets parameters")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Registry is a named collection of metrics. The zero registry is not
// usable; NewRegistry returns one. All methods are nil-safe and return
// nil handles from a nil registry, which makes every metric a no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	timers   map[string]*Timer
	// onNew, when set, is called (outside the hot path, under mu) for
	// every metric created, and is replayed for existing metrics when
	// installed — the expvar bridge uses it.
	onNew func(name string, read func() any)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFresh(name)
	c := &Counter{name: name}
	r.counters[name] = c
	r.announce(name, func() any { return c.Value() })
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFresh(name)
	g := &Gauge{name: name}
	r.gauges[name] = g
	r.announce(name, func() any { return g.Value() })
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (bounds are ignored if it already exists; nil
// bounds use DefValueBuckets).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFresh(name)
	h := newHistogram(name, bounds)
	r.hists[name] = h
	r.announce(name, func() any { return h.Value() })
	return h
}

// Timer returns the named timer, creating it with DefTimeBuckets on
// first use.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.timers[name]; ok {
		return t
	}
	r.checkFresh(name)
	t := &Timer{h: newHistogram(name, DefTimeBuckets)}
	r.timers[name] = t
	r.announce(name, func() any { return t.Value() })
	return t
}

// checkFresh panics if name is already registered as another metric
// type — a programmer error surfaced at init time. Callers hold mu.
func (r *Registry) checkFresh(name string) {
	_, a := r.counters[name]
	_, b := r.gauges[name]
	_, c := r.hists[name]
	_, d := r.timers[name]
	if a || b || c || d {
		panic(fmt.Sprintf("obs: metric %q already registered with a different type", name))
	}
}

// announce runs the creation hook. Callers hold mu.
func (r *Registry) announce(name string, read func() any) {
	if r.onNew != nil {
		r.onNew(name, read)
	}
}

// SetCreateHook installs fn to be called for every metric created from
// now on, and replays it for all existing metrics. Used by the expvar
// bridge; fn must not call back into the registry.
func (r *Registry) SetCreateHook(fn func(name string, read func() any)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onNew = fn
	for n, c := range r.counters {
		c := c
		fn(n, func() any { return c.Value() })
	}
	for n, g := range r.gauges {
		g := g
		fn(n, func() any { return g.Value() })
	}
	for n, h := range r.hists {
		h := h
		fn(n, func() any { return h.Value() })
	}
	for n, t := range r.timers {
		t := t
		fn(n, func() any { return t.Value() })
	}
}

// Snapshot is a point-in-time reading of every metric in a registry.
type Snapshot struct {
	Counters   map[string]uint64         `json:"counters"`
	Gauges     map[string]float64        `json:"gauges"`
	Histograms map[string]HistogramValue `json:"histograms"`
	Timers     map[string]HistogramValue `json:"timers"`
}

// Snapshot reads every metric. Individual readings are atomic and each
// histogram's Count equals the sum of its bucket Counts; the snapshot
// as a whole is a moment-in-time view under concurrent writers.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramValue),
		Timers:     make(map[string]HistogramValue),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	timers := make(map[string]*Timer, len(r.timers))
	for n, t := range r.timers {
		timers[n] = t
	}
	r.mu.Unlock()
	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range hists {
		s.Histograms[n] = h.Value()
	}
	for n, t := range timers {
		s.Timers[n] = t.Value()
	}
	return s
}
