package main

import "fmt"

// runSeconds is BENCHMARK.json's run_seconds, the default for -seconds.
const runSeconds = 15

// metricDef declares one metric. BENCHMARK.json carries the same names
// and units (a test holds the two together); bench/README.md explains
// each one.
type metricDef struct {
	name string
	unit string
}

// endToEnd is what a user of the cluster sees, measured with tracing
// off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"rows_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KB"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the traced run's output, grouped by where the number
// comes from. A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// Spans: the harness's op and handler spans around the program's
	// own span tree, per traced op.
	{"proto.wire_self_ms_per_op", "ms"},
	{"cluster.other_self_us_per_op", "us"},
	{"core.plan_us_per_op", "us"},
	{"core.barrier_wait_us_per_op", "us"},
	{"core.dispatch_us_per_op", "us"},
	{"core.gather_ms_per_op", "ms"},
	{"core.compose_ms_per_op", "ms"},
	{"core.passthrough_us_per_op", "us"},
	{"core.phase_cover_pct", "%"},
	{"engine.subquery_busy_ms_per_op", "ms"},
	{"core.subquery_max_over_mean", "ratio"},

	// Program counters, as deltas over the untraced window.
	{"core.subqueries_per_op", "count"},
	{"core.svp_share", "ratio"},
	{"core.steals_per_op", "count"},
	{"core.requeues", "count"},
	{"core.hedges", "count"},
	{"core.blocked_writes", "count"},
	{"engine.morsels_per_op", "count"},
	{"engine.morsel_steals_per_op", "count"},
	{"storage.bufferpool_hit_rate", "ratio"},
	{"storage.segments_built", "count"},
	{"storage.segments_pruned_share", "ratio"},
	{"cache.hit_rate", "ratio"},
	{"admission.shed", "count"},
	{"admission.queued", "count"},
	{"cluster.retries", "count"},
	{"cluster.failovers", "count"},
	{"cluster.breaker_trips", "count"},
	{"proto.frames_per_op", "count"},
	{"proto.bytes_per_row", "B"},

	// Direct calls into each layer's exported functions.
	{"sql.parse_us_per_op", "us"},
	{"core.planrewrite_us", "us"},
	{"engine.q1_ns_per_row", "ns"},
	{"engine.q6_ns_per_row", "ns"},
	{"engine.q1_allocs_per_row", "count"},
	{"engine.q6_allocs_per_row", "count"},
	{"engine.range_fetch_ns_per_row", "ns"},
	{"engine.point_lookup_us", "us"},
	{"engine.apply_write_us", "us"},
	{"storage.segment_build_ms", "ms"},
	{"storage.segment_bytes_per_row", "B"},
	{"memdb.load_ns_per_row", "ns"},
	{"memdb.compose_ms", "ms"},
	{"sqltypes.encode_ns_per_row", "ns"},
	{"sqltypes.decode_ns_per_row", "ns"},
	{"sqltypes.encoded_bytes_per_row", "B"},
	{"proto.ping_rtt_us", "us"},
	{"proto.stub_rows_per_s", "1/s"},
	{"driver.scan_ns_per_row", "ns"},
	{"cluster.write_broadcast_us", "us"},

	// The second clock: the cost model's virtual time beside host time.
	{"costmodel.modelled_ms_per_op", "ms"},
	{"costmodel.modelled_over_host", "ratio"},

	// Process-wide, over the untraced window.
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"runtime.heap_growth_kb_per_op", "KB"},

	// The harness's own view of the untraced window.
	{"client.q01_p50_ms", "ms"},
	{"client.q03_p50_ms", "ms"},
	{"client.q04_p50_ms", "ms"},
	{"client.q05_p50_ms", "ms"},
	{"client.q06_p50_ms", "ms"},
	{"client.q12_p50_ms", "ms"},
	{"client.q14_p50_ms", "ms"},
	{"client.q21_p50_ms", "ms"},
	{"client.rows_per_op", "count"},
	{"client.lat_p95_ms", "ms"},
	{"client.lat_p99_ms", "ms"},
	{"client.write_lat_p50_ms", "ms"},
	{"client.write_lat_p95_ms", "ms"},
	{"client.gen_late_p95_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect turns measured values into the result's metric map, holding
// the run to its declaration: every declared name present, none extra.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was declared but not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but not declared", name)
		}
	}
	return out, nil
}
