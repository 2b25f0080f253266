package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json at the
// repository root carries the same declarations for the driver; a test
// keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the median a metric may worsen
}

// endToEnd lists the metrics a user of the system sees; every workload
// reports all of them from the untraced run. The five that are times are
// read on the reference clock (refclock.go).
//
// The bounds are sized from what identical code repeats to on the
// reference container (bench/README.md, "Repeatability"): over ten runs on
// ten seeds the quartile-to-quartile spread is up to 9% of the median on
// the timing metrics, 8% on peak RSS and 2% on the allocation metrics.
// The driver refuses a benchmark whose own spread exceeds a bound and asks
// for a third of it, so the timing bounds sit at the 25% it allows at most.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_latency_p50_ms", "ms", "lower", 0.25},
	{"op_latency_p90_ms", "ms", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"alloc_kb_per_op", "KiB", "lower", 0.10},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced run. A layer a
// workload never enters reports 0 there.
var perLayer = []metricDef{
	{Name: "wisconsin.generate_ms", Unit: "ms", Better: "lower"},

	{Name: "strategy.plan_us", Unit: "us", Better: "lower"},
	{Name: "xra.encode_parse_us", Unit: "us", Better: "lower"},
	{Name: "xra.processes", Unit: "count", Better: "lower"},
	{Name: "xra.streams", Unit: "count", Better: "lower"},

	{Name: "core.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.queue_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.est_over_actual", Unit: "ratio", Better: "lower"},

	{Name: "parallel.wall_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "parallel.ns_per_tuple_moved", Unit: "ns", Better: "lower"},
	{Name: "parallel.tuples_moved_per_op", Unit: "count", Better: "lower"},
	{Name: "parallel.batches_per_op", Unit: "count", Better: "lower"},
	{Name: "parallel.batch_fill", Unit: "ratio", Better: "higher"},
	{Name: "parallel.goroutines_per_op", Unit: "count", Better: "lower"},
	{Name: "parallel.allocs_per_op", Unit: "count", Better: "lower"},

	{Name: "hashjoin.build_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "hashjoin.probe_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "hashjoin.pipelining_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "hashjoin.delete_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "hashjoin.est_cpu_share", Unit: "ratio", Better: "lower"},

	{Name: "relation.route_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "relation.encode_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "relation.decode_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "relation.signed_encode_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "relation.signed_decode_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "relation.wire_bytes_per_tuple", Unit: "B", Better: "lower"},
	{Name: "relation.pool_get_put_ns", Unit: "ns", Better: "lower"},

	{Name: "serve.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "serve.first_batch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.data_frames_per_op", Unit: "count", Better: "lower"},
	{Name: "serve.apply_self_us", Unit: "us", Better: "lower"},

	{Name: "ivm.apply_us_per_round", Unit: "us", Better: "lower"},
	{Name: "ivm.ns_per_delta_tuple", Unit: "ns", Better: "lower"},
	{Name: "ivm.changes_per_round", Unit: "count", Better: "lower"},
	{Name: "ivm.create_ms", Unit: "ms", Better: "lower"},
	{Name: "ivm.resident_mb", Unit: "MiB", Better: "lower"},

	{Name: "sim.events_per_op", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.virtual_resp_s.SP", Unit: "s", Better: "lower"},
	{Name: "sim.virtual_resp_s.SE", Unit: "s", Better: "lower"},
	{Name: "sim.virtual_resp_s.RD", Unit: "s", Better: "lower"},
	{Name: "sim.virtual_resp_s.FP", Unit: "s", Better: "lower"},
	{Name: "engine.startup_virtual_s", Unit: "s", Better: "lower"},
	{Name: "engine.handshake_virtual_s", Unit: "s", Better: "lower"},

	{Name: "costmodel.unit_nanos", Unit: "ns", Better: "lower"},

	{Name: "process.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "process.heap_live_mb", Unit: "MiB", Better: "lower"},
	{Name: "client.latency_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "client.latency_tail_pct", Unit: "%", Better: "higher"},
	{Name: "host.ref_kernel_ns", Unit: "ns", Better: "lower"},
	{Name: "host.ref_drift_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.unresolved_layers", Unit: "count", Better: "lower"},
}

// value is one reported measurement in the driver's result format.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// newResult packs measured values under their declared units. Every
// declared metric must have been measured, and nothing undeclared may be
// reported: a typo in a metric name fails here, not at the driver.
func newResult(defs []metricDef, got map[string]float64, attempted, failed int64, correct bool) (result, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]value, len(defs))}
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s = %v", d.Name, v)
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(got) != len(defs) {
		for name := range got {
			if _, ok := res.Metrics[name]; !ok {
				return res, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return res, nil
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain floats and strings always marshal
	}
	return string(b)
}
