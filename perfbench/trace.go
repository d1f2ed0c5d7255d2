package main

import (
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"copa/internal/obs"
)

// interval is one closed time range in nanoseconds.
type interval struct{ start, end int64 }

func spanInterval(s obs.SpanRecord) interval {
	st := s.Start.UnixNano()
	return interval{st, st + int64(s.Duration)}
}

// selfTime is a span's duration minus the part of its interval that the
// union of its children's intervals covers. Children may overlap each
// other (a hedged router attempt runs beside the first one); overlapping
// time is subtracted once. Child time outside the parent is ignored.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return time.Duration(parent.end - parent.start - covered)
}

// blockingChildren picks the children that the parent waited on: when
// children overlap (hedged attempts), only the one that finished first is
// kept, since the parent returns as soon as one of them answers.
func blockingChildren(children []obs.SpanRecord) []obs.SpanRecord {
	cs := append([]obs.SpanRecord(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start.Before(cs[j].Start) })
	var out []obs.SpanRecord
	for _, c := range cs {
		if n := len(out); n > 0 && c.Start.Before(out[n-1].Start.Add(out[n-1].Duration)) {
			if c.Start.Add(c.Duration).Before(out[n-1].Start.Add(out[n-1].Duration)) {
				out[n-1] = c
			}
			continue
		}
		out = append(out, c)
	}
	return out
}

// treeStats folds finished request trees into per-span-name self times
// and durations, plus each tree's blocking-path self-time sum.
type treeStats struct {
	self     map[string]*meanAcc // self time per span name
	dur      map[string]*meanAcc // full duration per span name
	blocking []float64           // per tree, ms: self times summed along the blocking path
	trees    int
}

type meanAcc struct {
	sum float64
	n   int
}

func (m *meanAcc) add(v float64) { m.sum += v; m.n++ }

func (m *meanAcc) mean() float64 {
	if m == nil || m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

func newTreeStats() *treeStats {
	return &treeStats{self: map[string]*meanAcc{}, dur: map[string]*meanAcc{}}
}

func (ts *treeStats) acc(m map[string]*meanAcc, name string, v float64) {
	a := m[name]
	if a == nil {
		a = &meanAcc{}
		m[name] = a
	}
	a.add(v)
}

// addTree records one request tree. spans must all share one trace ID;
// the tree's root is the span without a parent.
func (ts *treeStats) addTree(spans []obs.SpanRecord) {
	kids := map[string][]obs.SpanRecord{}
	var root *obs.SpanRecord
	for i := range spans {
		s := &spans[i]
		if s.Parent == "" {
			root = s
			continue
		}
		kids[s.Parent] = append(kids[s.Parent], *s)
	}
	if root == nil {
		return
	}
	parents := make([]string, 0, len(kids))
	for p := range kids {
		parents = append(parents, p)
	}
	for _, p := range parents {
		kids[p] = nestRemote(kids[p], kids)
	}
	ts.trees++
	for _, s := range spans {
		var ivs []interval
		for _, c := range kids[s.ID] {
			ivs = append(ivs, spanInterval(c))
		}
		ts.acc(ts.self, s.Name, float64(selfTime(spanInterval(s), ivs))/1e3)
		ts.acc(ts.dur, s.Name, float64(s.Duration)/1e3)
	}
	var walk func(s obs.SpanRecord) time.Duration
	walk = func(s obs.SpanRecord) time.Duration {
		var ivs []interval
		for _, c := range kids[s.ID] {
			ivs = append(ivs, spanInterval(c))
		}
		total := selfTime(spanInterval(s), ivs)
		for _, c := range blockingChildren(kids[s.ID]) {
			total += walk(c)
		}
		return total
	}
	ts.blocking = append(ts.blocking, float64(walk(*root))/1e6)
}

// nestUnder names spans that are recorded one level too high: coparouter
// propagates router.allocate's span context to the backend, not the
// attempt's, so a backend's http.allocate arrives as a sibling of the
// router.attempt that carried it. Such a span is moved under the sibling
// of the named kind whose interval contains it (the latest-starting one,
// when hedged attempts overlap).
var nestUnder = map[string]string{"http.allocate": "router.attempt"}

// nestRemote returns siblings with every nestUnder span moved into its
// containing sibling's child list in kids.
func nestRemote(siblings []obs.SpanRecord, kids map[string][]obs.SpanRecord) []obs.SpanRecord {
	var keep []obs.SpanRecord
	for _, c := range siblings {
		want, ok := nestUnder[c.Name]
		var into *obs.SpanRecord
		if ok {
			ci := spanInterval(c)
			for i := range siblings {
				s := &siblings[i]
				si := spanInterval(*s)
				if s.Name == want && si.start <= ci.start && si.end >= ci.end && (into == nil || s.Start.After(into.Start)) {
					into = s
				}
			}
		}
		if into == nil {
			keep = append(keep, c)
			continue
		}
		kids[into.ID] = append(kids[into.ID], c)
	}
	return keep
}

// selfUS and durUS return the mean self time / duration of a span name
// in microseconds (0 when the span never occurred).
func (ts *treeStats) selfUS(name string) float64 { return ts.self[name].mean() }
func (ts *treeStats) durUS(name string) float64  { return ts.dur[name].mean() }

// spanKey identifies a span record across drains of the tracer ring.
// Flat spans carry no IDs, so name and timing stand in for one.
type spanKey struct {
	trace, id, name string
	start, dur      int64
}

// keepSpans bounds how many raw spans a traced run keeps for writing
// out; trees are folded into treeStats as they complete, so the
// analysis itself does not depend on this cap.
const keepSpans = 50000

// collector drains the process tracer's ring buffer while a traced run
// is in flight, assembles hierarchical spans into request trees and
// keeps flat spans by name.
type collector struct {
	mu      sync.Mutex
	tr      *obs.Tracer
	seen    map[spanKey]struct{}
	order   []spanKey // FIFO of seen keys, bounding the dedup set
	total   uint64
	lost    uint64
	pending map[string][]obs.SpanRecord // open trees by trace ID
	ready   []string                    // trees whose root arrived last drain
	stats   *treeStats
	flat    map[string]*meanAcc // flat span durations by name, µs
	kept    []obs.SpanRecord
	dropped int

	stop chan struct{}
	done chan struct{}
}

func newCollector(tr *obs.Tracer) *collector {
	return &collector{
		tr:      tr,
		seen:    map[spanKey]struct{}{},
		total:   tr.Total(),
		pending: map[string][]obs.SpanRecord{},
		stats:   newTreeStats(),
		flat:    map[string]*meanAcc{},
	}
}

// start drains every period until stop is called.
func (c *collector) start(period time.Duration) {
	c.stop, c.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(c.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.drain()
			}
		}
	}()
}

// finish stops the drain loop, takes the last spans and closes every
// tree whose root has arrived.
func (c *collector) finish() {
	if c.stop != nil {
		close(c.stop)
		<-c.done
	}
	c.drain()
	c.drain() // the second pass closes trees whose root the first one saw
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = map[string][]obs.SpanRecord{}
}

// drain copies the spans recorded since the last drain. The ring keeps
// the newest 1024 spans; if more than that arrived since the previous
// drain the excess is counted as lost.
func (c *collector) drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.tr.Total()
	const ring, slack = 1024, 128
	fresh := total - c.total
	if fresh > ring {
		c.lost += fresh - ring
	}
	c.total = total
	n := int(fresh) + slack
	if n > ring {
		n = ring
	}
	// Trees whose root arrived in the previous drain are closed now, so
	// a hedged loser that ends just after the winner is still counted.
	for _, id := range c.ready {
		c.stats.addTree(c.pending[id])
		delete(c.pending, id)
	}
	c.ready = c.ready[:0]
	recs := c.tr.Recent(n)
	for i := len(recs) - 1; i >= 0; i-- { // oldest first
		s := recs[i]
		k := spanKey{s.Trace, s.ID, s.Name, s.Start.UnixNano(), int64(s.Duration)}
		if _, ok := c.seen[k]; ok {
			continue
		}
		c.seen[k] = struct{}{}
		c.order = append(c.order, k)
		if len(c.order) > 2*ring {
			delete(c.seen, c.order[0])
			c.order = c.order[1:]
		}
		if len(c.kept) < keepSpans {
			c.kept = append(c.kept, s)
		} else {
			c.dropped++
		}
		if s.Trace == "" {
			a := c.flat[s.Name]
			if a == nil {
				a = &meanAcc{}
				c.flat[s.Name] = a
			}
			a.add(float64(s.Duration) / 1e3)
			continue
		}
		c.pending[s.Trace] = append(c.pending[s.Trace], s)
		if s.Parent == "" {
			c.ready = append(c.ready, s.Trace)
		}
	}
}

// writeSpans writes the kept spans as gzip-compressed JSON, in the
// obs.SpanRecord format copaserve's /debug/spans serves.
func (c *collector) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	if err := json.NewEncoder(zw).Encode(c.kept); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
