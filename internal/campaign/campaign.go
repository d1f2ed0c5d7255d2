// Package campaign is the sweep-orchestration subsystem: it shards a
// scenario space (topology seeds × impairment profiles × CSI-age grid)
// into deterministic work units, fans the units out over a worker pool
// of reusable evaluation arenas, streams per-unit results into
// mergeable online aggregates (Moments + quantile Sketch — no
// per-sample retention, so a 100k-topology campaign runs in bounded
// memory), and journals completed units to a JSONL checkpoint so a
// killed campaign resumes exactly where it stopped.
//
// The key invariant is stateless substream derivation: topology i's
// deployment and evaluation RNG streams derive from (campaign seed, i)
// via rng.Derive, never from execution order. Unit results are
// therefore bit-identical regardless of worker count, interleaving, or
// resume, and the engine merges them in ascending unit order, so the
// final aggregates — and their JSON serialization — are byte-identical
// across all of those too.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"copa/internal/channel"
)

// Profile is one named impairment calibration in the sweep grid.
type Profile struct {
	Name        string              `json:"name"`
	Impairments channel.Impairments `json:"impairments"`
}

// evalSeedXor separates the evaluation-stream family from the
// deployment-stream family, which derives directly from Seed. Must
// match internal/testbed's RunScenario for campaign results to be
// bit-identical with the serial harness.
const evalSeedXor = 0x5eed

// Spec fully describes a campaign: the scenario space and its
// sharding. Two campaigns with equal Specs produce byte-identical
// aggregates; the checkpoint journal embeds a fingerprint of the Spec
// so a resume against different parameters fails loudly instead of
// merging incompatible results.
type Spec struct {
	// Seed is the campaign master seed: topology i is
	// channel.DeploymentAt(Seed, Scenario, i) everywhere.
	Seed int64 `json:"seed"`
	// Scenario is the antenna configuration.
	Scenario channel.Scenario `json:"scenario"`
	// Topologies is the population size per grid cell.
	Topologies int `json:"topologies"`
	// Shards splits each cell's topology range into Shards contiguous
	// work units — the granularity of scheduling and checkpointing.
	Shards int `json:"shards"`
	// Profiles is the impairment axis of the grid.
	Profiles []Profile `json:"profiles"`
	// AgeBuckets is the CSI-age axis: bucket a evaluates with
	// Impairments.Aged(a/AgeBuckets), so bucket 0 is fresh CSI.
	// At least 1.
	AgeBuckets int `json:"age_buckets"`
	// InterferenceDeltaDB scales all cross-channels (−10 reproduces
	// the Fig. 12 weak-interference emulation).
	InterferenceDeltaDB float64 `json:"interference_delta_db,omitempty"`
	// SkipCOPAPlus disables the (expensive) mercury/water-filling
	// variants.
	SkipCOPAPlus bool `json:"skip_copa_plus,omitempty"`
	// MultiDecoder evaluates with per-subcarrier rate selection.
	MultiDecoder bool `json:"multi_decoder,omitempty"`
}

// Validate rejects specs the engine cannot shard deterministically.
func (s Spec) Validate() error {
	if s.Topologies < 1 {
		return fmt.Errorf("campaign: topologies must be ≥ 1 (got %d)", s.Topologies)
	}
	if s.Shards < 1 {
		return fmt.Errorf("campaign: shards must be ≥ 1 (got %d)", s.Shards)
	}
	if s.Shards > s.Topologies {
		return fmt.Errorf("campaign: shards (%d) exceed topologies (%d)", s.Shards, s.Topologies)
	}
	if len(s.Profiles) == 0 {
		return fmt.Errorf("campaign: at least one impairment profile required")
	}
	seen := make(map[string]bool, len(s.Profiles))
	for _, p := range s.Profiles {
		if p.Name == "" || strings.ContainsRune(p.Name, '/') {
			return fmt.Errorf("campaign: profile name %q must be non-empty and slash-free", p.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("campaign: duplicate profile name %q", p.Name)
		}
		seen[p.Name] = true
	}
	if s.AgeBuckets < 1 {
		return fmt.Errorf("campaign: age buckets must be ≥ 1 (got %d)", s.AgeBuckets)
	}
	return nil
}

// Cells is the number of (profile, age) grid cells.
func (s Spec) Cells() int { return len(s.Profiles) * s.AgeBuckets }

// Units is the total number of work units: every cell split into
// Shards topology ranges.
func (s Spec) Units() int { return s.Cells() * s.Shards }

// UnitCoord decodes unit u into its grid coordinates.
func (s Spec) UnitCoord(u int) (profile, age, shard int) {
	cell := u / s.Shards
	return cell / s.AgeBuckets, cell % s.AgeBuckets, u % s.Shards
}

// shardRange is shard sh's half-open topology index range. Ranges
// partition [0, Topologies) with sizes differing by at most one.
func (s Spec) shardRange(sh int) (lo, hi int) {
	return sh * s.Topologies / s.Shards, (sh + 1) * s.Topologies / s.Shards
}

// Fingerprint is a stable hash of everything that determines the
// campaign's results, used to pair checkpoints with their spec. It
// hashes the canonical JSON form, which is deterministic (struct
// fields marshal in declaration order).
func (s Spec) Fingerprint() string {
	data, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("campaign: spec not marshalable: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ColumnName names the aggregate column for one (profile, age, scheme)
// cell: "<profile>/age<a>/<scheme>".
func ColumnName(profile string, age int, scheme string) string {
	return fmt.Sprintf("%s/age%d/%s", profile, age, scheme)
}

// Fig. 9 columns: the deployment scatter aggregated as CDFs (one
// sample per client). They depend only on the topology population, so
// only grid cell 0 contributes them.
const (
	ColFig9Signal       = "fig9/signal_dbm"
	ColFig9Interference = "fig9/interference_dbm"
)

// Column is one mergeable aggregate stream: online moments plus a
// quantile sketch. Values are throughput in bits/s for scheme columns
// and dBm for the Fig. 9 columns.
type Column struct {
	Moments
	Sketch *Sketch `json:"sketch"`
}

// NewColumn returns an empty column.
func NewColumn() *Column { return &Column{Sketch: NewSketch()} }

// Add folds one sample into both aggregates.
func (c *Column) Add(v float64) {
	c.Moments.Add(v)
	c.Sketch.Add(v)
}

// Merge folds another column in (o's samples after c's).
func (c *Column) Merge(o *Column) {
	c.Moments.Merge(o.Moments)
	c.Sketch.Merge(o.Sketch)
}

// UnitResult is one completed work unit's aggregates — what workers
// emit, the journal records, and the finalizer merges.
type UnitResult struct {
	Unit    int                `json:"unit"`
	Columns map[string]*Column `json:"columns"`
}

// col returns (creating if needed) a named column.
func (r *UnitResult) col(name string) *Column {
	c, ok := r.Columns[name]
	if !ok {
		c = NewColumn()
		r.Columns[name] = c
	}
	return c
}

// Result is a completed campaign: the spec and every merged column.
// Serialize with MarshalIndent — map keys sort, floats round-trip, so
// equal campaigns yield byte-identical files.
type Result struct {
	Spec    Spec               `json:"spec"`
	Units   int                `json:"units"`
	Columns map[string]*Column `json:"columns"`
}

// Column returns the named column, or nil.
func (r *Result) Column(name string) *Column { return r.Columns[name] }

// SchemeColumn returns the (profile, age, scheme) column, or nil.
func (r *Result) SchemeColumn(profile string, age int, scheme string) *Column {
	return r.Columns[ColumnName(profile, age, scheme)]
}
