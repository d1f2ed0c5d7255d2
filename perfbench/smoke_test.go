package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile is the repository's benchmark declaration.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestDeclarationMatches checks BENCHMARK.json against the metric tables
// the program reports from.
func TestDeclarationMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, %d reported (limit 16)", len(bf.EndToEnd), len(endToEnd))
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d reported (limit 128)", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range endToEnd {
		e := bf.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || !(e.Bound > 0 && e.Bound <= 0.25) {
			t.Errorf("end_to_end[%d] = %+v, program reports %+v", i, e, d)
		}
	}
	for i, d := range perLayer {
		if e := bf.PerLayer[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program reports %+v", i, e, d)
		}
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q has no implementation", w.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(bf.Workloads), len(workloads))
	}
}

// TestWorkloadsSmoke runs every workload for a handful of ops, untraced
// and traced, and checks each result line.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	seen := map[string]bool{}
	for name, fn := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := fn(options{seed: 7, seconds: 300 * time.Millisecond, trace: trace, spansOut: t.TempDir(), setups: 1})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			out, err := render(rep, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !out.Correct || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d", name, trace, out.Correct, out.Attempted)
			}
			// Only serve-hot's non-finite requests may fail, while the
			// wire layer accepts them; no other op may.
			if out.Failed != rep.knownFailed {
				t.Errorf("%s trace=%v: %d of %d ops failed, %d of them non-finite requests", name, trace, out.Failed, out.Attempted, rep.knownFailed)
			}
			if limit := out.Attempted / hotBlock * nonFinite(); rep.knownFailed > limit {
				t.Errorf("%s trace=%v: %d non-finite requests failed, at most %d sent", name, trace, rep.knownFailed, limit)
			}
			for m := range out.Metrics {
				if !metricName.MatchString(m) || len(m) > 64 {
					t.Errorf("bad metric name %q", m)
				}
				seen[m] = true
			}
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !seen[d.name] {
			t.Errorf("declared metric %s never emitted", d.name)
		}
	}
}

func nonFinite() int {
	n := 0
	for _, k := range badKinds {
		if k.nonFinite {
			n++
		}
	}
	return n
}
