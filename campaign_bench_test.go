package copa

import (
	"context"
	"testing"

	"copa/internal/campaign"
	"copa/internal/channel"
)

// BenchmarkCampaignUnit times one complete single-unit campaign — the
// engine's scheduling overhead plus one work unit's topology
// evaluations on the worker's reused arena. It is the per-unit cost a
// large sweep pays Units() times, and its allocs/op is gated by
// copabench: the evaluation inside the unit must stay on the
// allocation-free hot path (DESIGN §8), so growth here means a
// regression in either the engine bookkeeping or the kernel.
func BenchmarkCampaignUnit(b *testing.B) {
	spec := campaign.Spec{
		Seed:         benchSeed,
		Scenario:     channel.Scenario1x1,
		Topologies:   1,
		Shards:       1,
		Profiles:     []campaign.Profile{{Name: "default", Impairments: channel.DefaultImpairments()}},
		AgeBuckets:   1,
		SkipCOPAPlus: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Units != 1 {
			b.Fatalf("units = %d", res.Units)
		}
	}
	b.StopTimer()
}
