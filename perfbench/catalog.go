package main

// unlisted are workloads the command runs that BENCHMARK.json does not
// list, because their figures do not repeat on a shared host within the
// bounds a gate needs (README.md, "Steadiness"). They stay for runs by
// hand: dispatch-noop is dispatch-tenants without the tenant plane, and
// paper-sim is the paper harness at 150 workers.
var unlisted = map[string]bool{"dispatch-noop": true, "paper-sim": true}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports on every workload. A
// layer the workload does not reach reads 0 (README.md, "Per-layer
// metrics").
var perLayer = []metricDef{
	{"taskvine.call_us", "us"},
	{"taskvine.submit_task_us", "us"},
	{"taskvine.result_wait_us", "us"},
	{"taskvine.decode_value_us", "us"},
	{"taskvine.spawn_workers_ms", "ms"},
	{"taskvine.create_library_ms", "ms"},
	{"taskvine.wrap_function_ms", "ms"},
	{"taskvine.install_library_ms", "ms"},
	{"manager.schedule_passes_per_op", "count"},
	{"manager.coalesced_wakeups_per_op", "count"},
	{"manager.frames_per_flush", "count"},
	{"manager.max_flush_batch", "count"},
	{"manager.shard_forwards_per_op", "count"},
	{"manager.bytes_through_manager_per_op", "B"},
	{"manager.fair_drains_per_op", "count"},
	{"manager.submits_throttled", "count"},
	{"manager.submits_shed", "count"},
	{"manager.libraries_deployed", "count"},
	{"manager.libraries_evicted", "count"},
	{"manager.direct_transfers", "count"},
	{"manager.peer_transfers", "count"},
	{"manager.peer_transfer_frac", "fraction"},
	{"manager.failures", "count"},
	{"manager.retries", "count"},
	{"manager.requeued", "count"},
	{"manager.restaged", "count"},
	{"manager.send_queue_drops", "count"},
	{"dataplane.fetches", "count"},
	{"dataplane.deduped", "count"},
	{"dataplane.served", "count"},
	{"dataplane.alt_source_retries", "count"},
	{"dataplane.fetch_errors", "count"},
	{"worker.protocol_errors", "count"},
	{"worker.transfer_ms", "ms"},
	{"worker.env_ms", "ms"},
	{"library.setup_ms", "ms"},
	{"library.exec_us", "us"},
	{"task.transfer_ms", "ms"},
	{"task.env_ms", "ms"},
	{"task.setup_ms", "ms"},
	{"task.exec_us", "us"},
	{"pickle.marshal_args_us", "us"},
	{"pickle.unmarshal_result_us", "us"},
	{"pickle.marshal_function_us", "us"},
	{"minipy.call_us", "us"},
	{"minipy.context_setup_ms", "ms"},
	{"poncho.resolve_pack_ms", "ms"},
	{"proto.invocation_frame_us", "us"},
	{"proto.result_frame_us", "us"},
	{"proto.install_frame_ms", "ms"},
	{"proto.install_frame_bytes", "B"},
	{"policy.add_worker_us", "us"},
	{"policy.plan_task_us", "us"},
	{"policy.plan_deploy_us", "us"},
	{"policy.place_ready_us", "us"},
	{"hashring.build_ms", "ms"},
	{"hashring.walk_us", "us"},
	{"sim.lnni_l1_s", "s"},
	{"sim.lnni_l2_s", "s"},
	{"sim.lnni_l3_s", "s"},
	{"sim.examol_l1_s", "s"},
	{"sim.examol_l2_s", "s"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
}

// fillMissing sets every catalog metric the workload did not reach to 0.
func fillMissing(ms metrics, defs []metricDef) {
	for _, d := range defs {
		if _, ok := ms[d.name]; !ok {
			ms.set(d.name, d.unit, 0)
		}
	}
}
