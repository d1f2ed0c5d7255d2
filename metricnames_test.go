package copa

import (
	"regexp"
	"testing"

	// Blank imports pull in metric registrations from packages the
	// facade does not re-export, so the lint sees the whole registry.
	_ "copa/internal/campaign"
	_ "copa/internal/medium"
	_ "copa/internal/router"
)

// metricNameRE is the repo's metric naming convention: dot-separated
// lowercase segments rooted at "copa.", each segment starting with a
// letter ("copa.serve.queue_seconds", "copa.campaign.shard_progress.s3").
// OpenMetrics exposition mangles the dots to underscores, so anything
// matching here is also a valid Prometheus family name.
var metricNameRE = regexp.MustCompile(`^copa(\.[a-z][a-z0-9_]*)+$`)

// TestMetricNameLint walks every metric registered by any imported
// package and rejects names outside the convention. New metrics that
// fail here would otherwise surface as inconsistent or unscrapable
// families on /metrics. Wired into `make check` and CI.
func TestMetricNameLint(t *testing.T) {
	names := metricNames(Metrics())
	if len(names) == 0 {
		t.Fatal("no metrics registered; lint has nothing to check")
	}
	for _, n := range names {
		if !metricNameRE.MatchString(n) {
			t.Errorf("metric %q violates naming convention %s", n, metricNameRE)
		}
	}

	// The front tier's and the serve cache's metric families must stay
	// registered under their documented prefixes — dashboards and the
	// router smoke test's healthz greps depend on these exact names.
	registered := make(map[string]bool, len(names))
	for _, n := range names {
		registered[n] = true
	}
	for _, want := range []string{
		"copa.router.requests",
		"copa.router.admitted_interactive",
		"copa.router.admitted_batch",
		"copa.router.shed_interactive",
		"copa.router.shed_batch",
		"copa.router.hedges",
		"copa.router.hedge_wins",
		"copa.router.hedge_budget_seconds",
		"copa.router.retries",
		"copa.router.backends_exhausted",
		"copa.router.backends_healthy",
		"copa.router.inflight",
		"copa.serve.cache_hits",
		"copa.serve.cache_misses",
		"copa.serve.cache_evictions",
		"copa.serve.cache.entries",
	} {
		if !registered[want] {
			t.Errorf("metric %q is not registered", want)
		}
	}
}

// metricNames returns every metric name in the snapshot.
func metricNames(s MetricsSnapshot) []string {
	var out []string
	for n := range s.Counters {
		out = append(out, n)
	}
	for n := range s.Gauges {
		out = append(out, n)
	}
	for n := range s.Histograms {
		out = append(out, n)
	}
	for n := range s.Timers {
		out = append(out, n)
	}
	return out
}
