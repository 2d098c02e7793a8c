package main

// metricDef names one reported metric and its unit; the lists below are the
// benchmark's contract and must match BENCHMARK.json (a test checks).
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports. An operation is one job, from
// submission to verified report.
var endToEnd = []metricDef{
	{"setup_s", "s"},      // start to first measured operation
	{"job_p50_ms", "ms"},  // median operation latency
	{"job_p90_ms", "ms"},  // 90th-percentile operation latency
	{"jobs_per_s", "1/s"}, // verified operations per second
	{"peak_rss_mb", "MB"}, // peak RSS summed over the system under test
}

// suiteExps are the quick suite's slowest experiments, reported one by one;
// the others are summed into harness.exp_ms.rest.
var suiteExps = []string{"fig11", "fig7", "fault-fig7", "defenses", "spectre-ctl",
	"spectre-ctl-browser", "sandbox-escape", "fig5", "fault-fig5", "speccheck-scale"}

// selfShareModules are the modules whose share of host CPU self time the
// traced run reports.
var selfShareModules = []string{"pipeline", "predict", "cache", "mem", "kernel",
	"sidechannel", "obs", "speccheck", "runtime"}

// perLayer is what a traced run reports.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, m := range selfShareModules {
		out = append(out, metricDef{m + ".self_share", "ratio"})
	}
	out = append(out,
		metricDef{"pipeline.ns_per_inst", "ns"},
		metricDef{"pipeline.retired_insts", "count"},
		metricDef{"pipeline.transient_insts", "count"},
		metricDef{"pipeline.squashes", "count"},
		metricDef{"pipeline.sq_stall_cycles", "count"},
		metricDef{"predict.queries", "count"},
		metricDef{"predict.psfp_hit_ratio", "ratio"},
		metricDef{"cache.fills", "count"},
		metricDef{"cache.flushes", "count"},
		metricDef{"kernel.context_switches", "count"},
		metricDef{"sidechannel.probes", "count"},
		metricDef{"obs.trace_overhead_share", "ratio"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_share", "ratio"},
	)
	for _, id := range suiteExps {
		out = append(out, metricDef{"harness.exp_ms." + id, "ms"})
	}
	out = append(out,
		metricDef{"harness.exp_ms.rest", "ms"},
		metricDef{"harness.pass_ms", "ms"},
		metricDef{"harness.cpu_util", "ratio"},
		metricDef{"harness.range_merge_ms", "ms"},
		metricDef{"service.queue_wait_ms.p50", "ms"},
		metricDef{"service.queue_wait_ms.p90", "ms"},
		metricDef{"service.lease_rtt_ms.p50", "ms"},
		metricDef{"service.shard_run_ms", "ms"},
		metricDef{"service.lease_self_ms.p50", "ms"},
		metricDef{"service.job_self_ms.p50", "ms"},
		metricDef{"service.leases_granted", "count"},
		metricDef{"service.lease_revocations", "count"},
		metricDef{"service.shards_retried", "count"},
		metricDef{"service.fsync_ms.p50", "ms"},
		metricDef{"service.fsync_ms.p90", "ms"},
		metricDef{"service.fsyncs_per_job", "count"},
		metricDef{"service.checkpoints", "count"},
		metricDef{"service.checkpoint_ms.p50", "ms"},
		metricDef{"service.submit_ms.p50", "ms"},
		metricDef{"service.wait_lag_ms.p50", "ms"},
		metricDef{"service.report_ms.p50", "ms"},
		metricDef{"service.cpu_ms_per_job", "ms"},
		metricDef{"service.trace_overhead_share", "ratio"},
	)
	return out
}()
