package main

import (
	"context"
	"testing"
	"time"

	"copa/internal/obs"
)

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"leaf", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 60}, {40, 90}}, 20},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"clipped to parent", []interval{{-50, 10}, {95, 150}}, 85},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(interval{0, 100}, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// hedgedTree is a router request whose home attempt was hedged: the two
// attempts overlap, and each backend's http.allocate is recorded as a
// sibling of the attempts (see nestUnder).
func hedgedTree() []obs.SpanRecord {
	base := time.Unix(1000, 0)
	span := func(name, id, parent string, start, end int64) obs.SpanRecord {
		return obs.SpanRecord{Name: name, Trace: "t", ID: id, Parent: parent,
			Start: base.Add(time.Duration(start)), Duration: time.Duration(end - start)}
	}
	return []obs.SpanRecord{
		span("serve.cache", "c", "s", 22, 24),
		span("serve.allocate", "s", "ha", 20, 45),
		span("http.allocate", "ha", "root", 15, 50),
		span("router.attempt", "a1", "root", 10, 60),
		span("http.allocate", "hb", "root", 45, 85),
		span("router.attempt", "a2", "root", 40, 90),
		span("router.allocate", "root", "", 0, 100),
	}
}

func TestTreeSelfTimesWithHedgedAttempts(t *testing.T) {
	ts := newTreeStats()
	ts.addTree(hedgedTree())
	if ts.trees != 1 {
		t.Fatalf("trees = %d, want 1", ts.trees)
	}
	// Self times in µs are the ns offsets above / 1e3.
	want := map[string]float64{
		"router.allocate": 20,   // 100 minus the union [10, 90] of both attempts
		"router.attempt":  12.5, // (50−35 + 50−40)/2: each attempt minus its own backend
		"http.allocate":   25,   // (35−25 + 40)/2: hb has no serve span under it
		"serve.allocate":  23,
		"serve.cache":     2,
	}
	for name, w := range want {
		if got := ts.selfUS(name) * 1e3; got != w {
			t.Errorf("%s self = %v ns, want %v", name, got, w)
		}
	}
	// Blocking path: root self 20, then the attempt that answered first
	// (a1: 15), its backend (10), serve (23) and the cache read (2).
	if len(ts.blocking) != 1 || ts.blocking[0]*1e6 != 70 {
		t.Errorf("blocking = %v ms, want 70 ns", ts.blocking)
	}
}

func TestCollectorDedupsAcrossDrains(t *testing.T) {
	defer obs.SetTraceSampling(obs.TraceSampling())
	obs.SetTraceSampling(1)
	tr := obs.NewTracer(1024)
	c := newCollector(tr)
	ctx, root := tr.StartSpan(context.Background(), "router.allocate")
	tr.ChildSpan(ctx, "router.attempt").End()
	c.drain()
	root.End()
	c.drain()
	c.drain()
	tr.Start("its.exchange").End()
	c.finish()
	if c.stats.trees != 1 || len(c.kept) != 3 || c.lost != 0 {
		t.Fatalf("trees=%d kept=%d lost=%d, want 1, 3, 0", c.stats.trees, len(c.kept), c.lost)
	}
	if c.flat["its.exchange"].n != 1 {
		t.Fatalf("flat spans not collected: %+v", c.flat)
	}
}
