package main

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the engine sees; every workload
// reports every one with -trace 0.
var endToEnd = []metricDef{
	{"drain_eps", "1/s", "higher"},
	{"paced_p50_ms", "ms", "lower"},
	{"paced_p90_ms", "ms", "lower"},
	{"paced_cpu_us_per_event", "us", "lower"},
	{"allocs_per_event", "count", "lower"},
	{"setup_s", "s", "lower"},
}

// tracedLayers are the per-layer metrics derived from a traced run's spans
// and from the engine's public counters. A workload without the layer
// reports 0. The layer operations of layers.go complete the per-layer list.
var tracedLayers = []metricDef{
	{"actors.source_lag_p50_ms", "ms", "lower"},
	{"actors.source_lag_p90_ms", "ms", "lower"},
	{"hop.transit_p50_us", "us", "lower"},
	{"hop.transit_p90_us", "us", "lower"},
	{"hop.actor_self_p50_us", "us", "lower"},
	{"hop.e2e_ns", "ns", "lower"},
	{"hop.attributed_ns", "ns", "higher"},
	{"hop.unattributed_frac", "frac", "lower"},
	{"stats.events_per_firing", "count", "higher"},
	{"stats.busiest_actor_busy_frac", "frac", "lower"},
	{"window.close_lag_p50_ms", "ms", "lower"},
	{"window.close_lag_p90_ms", "ms", "lower"},
	{"window.partial_frac", "frac", "lower"},
	{"dist.transit_p50_ms", "ms", "lower"},
	{"dist.transit_p90_ms", "ms", "lower"},
	{"dist.ring_watermark", "count", "lower"},
	{"dist.dropped", "count", "lower"},
	{"dist.seq_gaps", "count", "lower"},
	{"dist.decode_errors", "count", "lower"},
	{"director.reordered", "count", "lower"},
	{"director.idle_cpu_ms_per_s", "ms/s", "lower"},
	{"stafilos.idle_cpu_ms_per_s", "ms/s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.heap_peak_mb", "MB", "lower"},
	{"latency.p99_ms", "ms", "lower"},
	{"latency.max_ms", "ms", "lower"},
	{"obs.overhead_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"lr.thrash_s", "s", "higher"},
}

// layerDefaults reports 0 for every traced per-layer metric; the run then
// overwrites the ones its workload has.
func (o *outcome) layerDefaults() {
	for _, m := range tracedLayers {
		o.set(m.name, 0, m.unit)
	}
}
