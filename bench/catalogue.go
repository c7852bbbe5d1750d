package main

// metricDef is one entry of BENCHMARK.json's metric lists. The test
// checks that the file and these lists say the same thing.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (see README.md for what each means on the
// batch and on the serve workloads).
//
// The bounds are wide because the build machine is: a 2-core VM on a
// shared host whose speed drifts by a fifth within the hour (the same
// asppbench run: 2.7 s, later 3.3 s). README.md records the spreads seen.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"result_latency_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer are the traced pass's metrics, layer by layer. They carry no
// bound; README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	lower("topology.generate4k_ms", "ms"),
	lower("topology.generate80k_ms", "ms"),
	lower("topology.load80k_ms", "ms"),
	lower("topology.csr80k_mb", "MB"),

	lower("routing.propagate4k_us", "us"),
	lower("routing.delta4k_us", "us"),
	lower("routing.paths_into_ns_per_monitor", "ns"),
	lower("routing.allocs_per_propagate", "count"),
	lower("routing.propagate80k_us", "us"),
	lower("routing.delta80k_us", "us"),
	lower("routing.full_attack80k_us", "us"),
	lower("routing.reference80k_ms", "ms"),
	lower("routing.reference80k_calls", "count"),
	lower("routing.batch80k_us_per_lane", "us"),
	lower("routing.delta_batch80k_us_per_lane", "us"),

	lower("core.simulate4k_us", "us"),
	lower("core.simulate80k_ms", "ms"),

	lower("experiment.fig7_80k_ms", "ms"),
	lower("experiment.fig8_80k_ms", "ms"),
	lower("experiment.fig9_80k_ms", "ms"),
	lower("experiment.fig10_80k_ms", "ms"),
	lower("experiment.fig11_80k_ms", "ms"),
	lower("experiment.fig11_sibling80k_ms", "ms"),
	lower("experiment.fig12_80k_ms", "ms"),
	lower("experiment.susceptibility80k_ms", "ms"),
	lower("experiment.pairs80k_tuned_ms", "ms"),
	lower("experiment.susceptibility80k_tuned_ms", "ms"),
	lower("experiment.detection4k_ms", "ms"),
	lower("experiment.compare4k_ms", "ms"),
	lower("experiment.prop_base", "count"),
	lower("experiment.prop_attack", "count"),
	higher("experiment.cache_hit_ratio", "ratio"),
	lower("experiment.cache_peak_mb", "MB"),
	lower("sweep80k.inproc_run_ms", "ms"),
	higher("sweep80k.covered_share", "ratio"),

	lower("measure.survey4k_ms", "ms"),
	lower("collector.churn_stream_ms", "ms"),
	lower("collector.corpus_updates", "count"),

	lower("detect.evaluate_us", "us"),
	lower("detect.observe_churn_ns", "ns"),
	lower("detect.observe_insert_ns", "ns"),
	lower("detect.bytes_per_prefix", "B"),
	lower("detect.alarms_per_update", "ratio"),
	lower("detect.allocs_per_update", "count"),

	lower("defense.compare4k_ms", "ms"),
	lower("defense.cautious4k_ms", "ms"),
	lower("relinfer.infer4k_ms", "ms"),

	lower("bgp.encode_ns", "ns"),
	lower("bgp.decode_ns", "ns"),
	lower("bgp.frame_bytes", "B"),

	higher("serve.inproc_updates_per_s", "1/s"),
	higher("serve.churn_updates_per_s", "1/s"),
	higher("serve.growth_updates_per_s", "1/s"),
	lower("serve.churn_state_mb", "MB"),
	lower("serve.growth_state_mb", "MB"),
	lower("serve.churn_alarm_latency_p50_ms", "ms"),
	lower("serve.growth_alarm_latency_p50_ms", "ms"),
	lower("serve.alarm_latency_p99_ms", "ms"),
	lower("serve.alarm_latency_p999_ms", "ms"),
	lower("serve.growth_alarm_latency_p99_ms", "ms"),
	lower("serve.internal_p50_us", "us"),
	lower("serve.internal_p99_us", "us"),
	lower("serve.gen_late_p99_ms", "ms"),
	lower("serve.queue_peak", "count"),
	higher("serve.mean_batch", "count"),
	lower("serve.dropped", "count"),
	lower("serve.frames_bad", "count"),
	lower("serve.alarms_lost", "count"),

	lower("asppbench.fig1_ms", "ms"),
	lower("asppbench.table1_ms", "ms"),
	lower("asppbench.fig5_ms", "ms"),
	lower("asppbench.fig6_ms", "ms"),
	lower("asppbench.fig7_ms", "ms"),
	lower("asppbench.fig8_ms", "ms"),
	lower("asppbench.fig9_ms", "ms"),
	lower("asppbench.fig10_ms", "ms"),
	lower("asppbench.fig11_ms", "ms"),
	lower("asppbench.fig12_ms", "ms"),
	lower("asppbench.fig13_ms", "ms"),
	lower("asppbench.fig14_ms", "ms"),
	lower("asppbench.compare_ms", "ms"),
	lower("asppbench.defense_ms", "ms"),
	lower("asppbench.inference_ms", "ms"),
	lower("asppbench.mitigation_ms", "ms"),
	lower("asppbench.susceptibility_ms", "ms"),
	lower("asppbench.startup80k_ms", "ms"),
	lower("asppbench.tsv_bytes", "B"),
	lower("asppbench.build_s", "s"),

	higher("parallel.pairs_scaling", "ratio"),
	higher("serve.shard_scaling", "ratio"),

	lower("failed_share", "ratio"),
	lower("trace.wall_s", "s"),
}
