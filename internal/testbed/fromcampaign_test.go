package testbed

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"copa/internal/campaign"
	"copa/internal/channel"
)

// TestCampaignMatchesSerialHarness is the bridge golden test: a sharded
// campaign over the same (seed, scenario) population must reproduce the
// serial harness exactly — same per-topology evaluations (shared
// kernel, shared substream derivation), so the campaign's streamed
// means equal the sample means to merge round-off, and its sketch
// quantiles track the interpolated sample percentiles within sketch
// resolution.
func TestCampaignMatchesSerialHarness(t *testing.T) {
	const topologies = 8
	cfg := DefaultConfig(7)
	cfg.Topologies = topologies
	cfg.SkipCOPAPlus = true
	serial, err := RunScenario(context.Background(), channel.Scenario1x1, cfg)
	if err != nil {
		t.Fatal(err)
	}

	spec := campaign.Spec{
		Seed:         cfg.Seed,
		Scenario:     channel.Scenario1x1,
		Topologies:   topologies,
		Shards:       3,
		Profiles:     []campaign.Profile{{Name: "default", Impairments: channel.DefaultImpairments()}},
		AgeBuckets:   1,
		SkipCOPAPlus: true,
	}
	res, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	rows := CampaignSummary(res, "default", 0)
	if len(rows) == 0 {
		t.Fatal("no summary rows")
	}
	for _, row := range rows {
		samples := serial.PerTopology[row.Scheme]
		if len(samples) != topologies {
			t.Fatalf("scheme %s: serial harness has %d samples", row.Scheme, len(samples))
		}
		if row.N != topologies {
			t.Errorf("scheme %s: campaign N=%d, want %d", row.Scheme, row.N, topologies)
		}
		mean := Mean(samples)
		if rel := math.Abs(row.MeanBps-mean) / mean; rel > 1e-9 {
			t.Errorf("scheme %s: campaign mean %.6g vs serial %.6g (rel %.2e)", row.Scheme, row.MeanBps, mean, rel)
		}
		if rel := math.Abs(row.StdBps-StdDev(samples)) / mean; rel > 1e-9 {
			t.Errorf("scheme %s: campaign std %.6g vs serial %.6g", row.Scheme, row.StdBps, StdDev(samples))
		}
		// Quantile conventions differ (sketch: nearest-rank bucket
		// midpoint; testbed: linear interpolation), so allow a loose but
		// meaningful band: between adjacent order statistics ± sketch
		// resolution.
		for _, q := range []struct {
			got float64
			p   float64
		}{{row.P10Bps, 0.10}, {row.MedianBps, 0.50}, {row.P90Bps, 0.90}} {
			want := Percentile(samples, q.p*100)
			if rel := math.Abs(q.got-want) / want; rel > 0.15 {
				t.Errorf("scheme %s p%.0f: campaign %.6g vs serial %.6g (rel %.3f)", row.Scheme, q.p*100, q.got, want, rel)
			}
		}
	}

	// The CDF bridge must expose every scheme column with a monotone
	// distribution reaching 1.
	for _, row := range rows {
		pts := CampaignCDF(res, campaign.ColumnName("default", 0, row.Scheme))
		if len(pts) == 0 {
			t.Fatalf("scheme %s: empty CDF", row.Scheme)
		}
		if last := pts[len(pts)-1].P; last != 1 {
			t.Errorf("scheme %s: CDF ends at %g", row.Scheme, last)
		}
	}
}

// TestExportCampaignCSV smoke-tests the figure-export path from
// campaign aggregates.
func TestExportCampaignCSV(t *testing.T) {
	spec := campaign.Spec{
		Seed:         3,
		Scenario:     channel.Scenario1x1,
		Topologies:   4,
		Shards:       2,
		Profiles:     []campaign.Profile{{Name: "default", Impairments: channel.DefaultImpairments()}},
		AgeBuckets:   2,
		SkipCOPAPlus: true,
	}
	res, err := campaign.Run(context.Background(), spec, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ExportCampaignCSV(dir, res); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"campaign_1x1_summary.csv",
		"campaign_1x1_cdf.csv",
		"campaign_1x1_fig9_cdf.csv",
	} {
		if rows := readCSV(t, filepath.Join(dir, name)); len(rows) < 2 {
			t.Errorf("%s: %d rows, want header + data", name, len(rows))
		}
	}
}
