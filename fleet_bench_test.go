package copa

import (
	"testing"

	"copa/internal/campaign"
	"copa/internal/channel"
)

// BenchmarkFleetMergeShard times the coordinator's merge step: folding
// one completed unit's columns into the campaign accumulator via
// campaign.MergeUnit — the exact call both the single-process finalizer
// and the fleet coordinator's in-order drain make per unit. This is the
// coordinator's per-unit serial section (everything else the fleet does
// is concurrent evaluation on workers), so its cost bounds how fast a
// coordinator can absorb completions. Gated by copabench: growth here
// means merge-side bookkeeping crept into the per-unit path.
func BenchmarkFleetMergeShard(b *testing.B) {
	spec := campaign.Spec{
		Seed:         benchSeed,
		Scenario:     channel.Scenario1x1,
		Topologies:   8,
		Shards:       1,
		Profiles:     []campaign.Profile{{Name: "default", Impairments: channel.DefaultImpairments()}},
		AgeBuckets:   1,
		SkipCOPAPlus: true,
	}
	ur, err := campaign.EvalUnit(spec, 0, nil, func() error { return nil })
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		into := make(map[string]*campaign.Column)
		campaign.MergeUnit(into, ur)
		if len(into) != len(ur.Columns) {
			b.Fatalf("merged %d columns, want %d", len(into), len(ur.Columns))
		}
	}
	b.StopTimer()
}
