// Command perfbench is the repository's end-to-end benchmark. It drives
// one of three workloads against the real packages from one process and
// prints, as the last line of standard output, a JSON object with the
// run's correctness verdict, op counts and metrics:
//
//	go -C perfbench run . --workload serve-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 tracing is off (the metric registry stays on, as in
// production) and the end-to-end metrics are reported. With --trace 1 a
// short untraced run is followed by a traced one (every trace sampled),
// and the per-layer metrics are reported: span self times, registry
// deltas and timed calls into each layer on the workload's own inputs.
// spec.json records why each workload exists and which end-to-end metric
// each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"copa/internal/obs"
)

// metricDef declares one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"throughput_ops", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
	{"ok_frac", "frac", "higher"},
	{"selected_mbps", "Mbps", "higher"},
	{"decision_eff_pct", "%", "higher"},
}

// perLayer are the traced run's metrics, grouped by module. A layer the
// workload never reaches reports 0.
var perLayer = []metricDef{
	{"router.self_us", "us", "lower"},
	{"router.proxy_us", "us", "lower"},
	{"router.hedges_per_op", "count", "lower"},
	{"router.hedge_win_ratio", "frac", "higher"},
	{"router.retries_per_op", "count", "lower"},
	{"router.shed_frac", "frac", "lower"},
	{"api.handler_self_us", "us", "lower"},
	{"api.decode_json_us", "us", "lower"},
	{"api.decode_bin_us", "us", "lower"},
	{"api.parse_us", "us", "lower"},
	{"api.encode_json_us", "us", "lower"},
	{"api.encode_bin_us", "us", "lower"},
	{"api.resp_bytes_json", "bytes", "lower"},
	{"api.resp_bytes_bin", "bytes", "lower"},
	{"serve.allocate_self_us", "us", "lower"},
	{"serve.cache_hit_ratio", "frac", "higher"},
	{"serve.cache_us", "us", "lower"},
	{"serve.queue_wait_ms", "ms", "lower"},
	{"serve.batch_wait_ms", "ms", "lower"},
	{"serve.evaluate_ms", "ms", "lower"},
	{"serve.batch_size_mean", "count", "higher"},
	{"serve.shared_eval_ratio", "frac", "higher"},
	{"serve.evictions_per_op", "count", "lower"},
	{"serve.shed_frac", "frac", "lower"},
	{"strategy.evaluate_all_ms", "ms", "lower"},
	{"strategy.eval_ms.csma", "ms", "lower"},
	{"strategy.eval_ms.copa_seq", "ms", "lower"},
	{"strategy.eval_ms.null", "ms", "lower"},
	{"strategy.eval_ms.conc_bf", "ms", "lower"},
	{"strategy.eval_ms.conc_null", "ms", "lower"},
	{"strategy.nulling_infeasible_frac", "frac", "lower"},
	{"power.alloc_ms", "ms", "lower"},
	{"power.iters_mean", "count", "lower"},
	{"power.equisnr_calls_per_op", "count", "lower"},
	{"power.warm_ratio", "frac", "higher"},
	{"power.mercury_calls_per_op", "count", "lower"},
	{"power.converge_failures", "count", "lower"},
	{"power.concurrent_cold_ms", "ms", "lower"},
	{"power.concurrent_warm_ms", "ms", "lower"},
	{"precoding.nulling_us", "us", "lower"},
	{"precoding.beamforming_us", "us", "lower"},
	{"precoding.stream_sinrs_us", "us", "lower"},
	{"ofdm.best_rate_us", "us", "lower"},
	{"ofdm.joint_best_rate_us", "us", "lower"},
	{"linalg.eig_batch_us", "us", "lower"},
	{"channel.deployment_us", "us", "lower"},
	{"drift.tick_idle_us", "us", "lower"},
	{"drift.tick_incremental_ms", "ms", "lower"},
	{"drift.tick_full_ms", "ms", "lower"},
	{"drift.incremental_ratio", "frac", "higher"},
	{"drift.cert_revocation_ratio", "frac", "lower"},
	{"drift.full_exchanges_per_s", "1/s", "lower"},
	{"drift.model_advance_us", "us", "lower"},
	{"core.its_exchange_ms", "ms", "lower"},
	{"core.its_leg_ms", "ms", "lower"},
	{"csi.full_bytes_per_exchange", "bytes", "lower"},
	{"csi.delta_bytes_per_incremental", "bytes", "lower"},
	{"csi.encode_delta_us", "us", "lower"},
	{"csi.decode_delta_us", "us", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.slo_miss_frac", "frac", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
	{"trace.unattributed_pct", "%", "lower"},
	{"trace.spans_lost", "count", "lower"},
	{"traced.setup_s", "s", "lower"},
}

// options configure one benchmark run.
type options struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	spansOut string // directory the traced run's spans are written to
	// setups is how many times set-up is repeated; setup_s is their
	// median.
	setups int
}

// report is what a workload hands back to main.
type report struct {
	correct   bool
	attempted int
	failed    int
	// knownFailed counts the failed ops marked known (opResult.known).
	knownFailed int
	metrics     map[string]float64
}

var workloads = map[string]func(options) (*report, error){
	"serve-cold": runServeCold,
	"serve-hot":  runServeHot,
	"mobility":   runMobility,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// render checks that a report carries exactly the declared metric set,
// every value finite, and attaches the units.
func render(rep *report, trace bool) (resultJSON, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := resultJSON{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return out, fmt.Errorf("metric %s not produced", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if len(rep.metrics) != len(defs) {
		return out, fmt.Errorf("%d metrics produced, %d declared", len(rep.metrics), len(defs))
	}
	if rep.attempted < 1 {
		return out, errors.New("no op attempted")
	}
	return out, nil
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "serve-cold, serve-hot or mobility")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	spans := flag.String("spans-out", filepath.Join(".bench_build", "spans"), "directory the traced run's spans are written to")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve-cold|serve-hot|mobility --seed N --seconds S --trace 0|1")
		return 2
	}
	obs.SetLogOutput(os.Stderr)
	rep, err := fn(options{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		spansOut: *spans,
		setups:   15,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := render(rep, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
