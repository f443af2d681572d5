package main

// metricDef declares one metric the benchmark emits. BENCHMARK.json
// carries the same table; a test keeps the two in agreement.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is emitted by every workload on an untraced run. One "op" is
// one acquire+release pair (svc-*, lib-*) or one simulated event (sim-*).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
}

// perLayer is emitted by every workload on a traced run; a layer that is
// not on the workload's path reports 0.
var perLayer = []metricDef{
	// fairlock: the in-process lock (lib-fairlock-mixed, svc-handoff-write).
	{Name: "fairlock.rlock_pair_ns", Unit: "ns", Better: "lower"},
	{Name: "fairlock.lock_pair_ns", Unit: "ns", Better: "lower"},
	{Name: "fairlock.handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "fairlock.sync_rwmutex_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fairlock.read_grants", Unit: "count", Better: "higher"},
	{Name: "fairlock.write_grants", Unit: "count", Better: "higher"},
	{Name: "fairlock.cohort_grants", Unit: "count", Better: "higher"},
	{Name: "uncontended_pair_ns", Unit: "ns", Better: "lower"},

	// lockmgr: the manager under the server (svc-*).
	{Name: "lockmgr.scalar_pair_ns", Unit: "ns", Better: "lower"},
	{Name: "lockmgr.batch_op_ns", Unit: "ns", Better: "lower"},
	{Name: "lockmgr.batch_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "lockmgr.wait_mean_us", Unit: "us", Better: "lower"},
	{Name: "lockmgr.wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "lockmgr.wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "lockmgr.hold_p50_us", Unit: "us", Better: "lower"},
	{Name: "lockmgr.grants", Unit: "count", Better: "higher"},
	{Name: "lockmgr.timeouts", Unit: "count", Better: "lower"},

	// wire: the codec (svc-*).
	{Name: "wire.req_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.req_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.resp_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.resp_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_pair", Unit: "B", Better: "lower"},

	// server: event loops and flushers (svc-*).
	{Name: "server.pipe_pair_us", Unit: "us", Better: "lower"},
	{Name: "server.tcp_raw_pair_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.ops_per_batch", Unit: "count", Better: "higher"},
	{Name: "server.wakeups_per_op", Unit: "count", Better: "lower"},
	{Name: "server.writevs_per_op", Unit: "count", Better: "lower"},
	{Name: "server.writev_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "server.parks_per_pair", Unit: "count", Better: "lower"},
	{Name: "server.fwd_op_share", Unit: "ratio", Better: "lower"},
	{Name: "server.fwd_inline_share", Unit: "ratio", Better: "higher"},
	{Name: "server.flush_stalls", Unit: "count", Better: "lower"},
	{Name: "server.flush_escalations", Unit: "count", Better: "lower"},
	{Name: "server.backpressure", Unit: "count", Better: "lower"},

	// net and proc: the kernel and the Go runtime, seen from outside.
	{Name: "net.residual_us", Unit: "us", Better: "lower"},
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.vcsw_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.heap_peak_mb", Unit: "MB", Better: "lower"},

	// client and cluster (svc-*).
	{Name: "client.conn_pair_us", Unit: "us", Better: "lower"},
	{Name: "client.self_us", Unit: "us", Better: "lower"},
	{Name: "client.pair_p999_us", Unit: "us", Better: "lower"},
	{Name: "client.router_pair_us", Unit: "us", Better: "lower"},
	{Name: "client.router_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.owner_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.gate_ns", Unit: "ns", Better: "lower"},

	// Observability cost rows.
	{Name: "introspect.recorder_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "stats.hist_add_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},

	// The ladder's closing terms (svc-*): what two contending clients add
	// over one, and what the rungs leave unexplained.
	{Name: "ladder.pair_mean_us", Unit: "us", Better: "lower"},
	{Name: "ladder.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "ladder.residual_us", Unit: "us", Better: "lower"},

	// Simulator layers (sim-*). Host-time rows may move with a simulator
	// optimisation; simulated-cycle rows only with a model change.
	{Name: "sim.events_per_pass", Unit: "count", Better: "lower"},
	{Name: "sim.schedule_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.wait_switch_ns", Unit: "ns", Better: "lower"},
	{Name: "topo.delay_at_ns", Unit: "ns", Better: "lower"},
	{Name: "topo.messages_per_cs", Unit: "count", Better: "lower"},
	{Name: "coherence.read_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "coherence.l1_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "core.hwlock_pair_host_ns", Unit: "ns", Better: "lower"},
	{Name: "core.hwlock_pair_cycles", Unit: "cycles", Better: "lower"},
	{Name: "core.transfer_cycles", Unit: "cycles", Better: "lower"},
	{Name: "ssb.cycles_per_cs", Unit: "cycles", Better: "lower"},
	{Name: "swlocks.mcs_cycles_per_cs", Unit: "cycles", Better: "lower"},
	{Name: "swlocks.mrsw_cycles_per_cs", Unit: "cycles", Better: "lower"},
	{Name: "microbench.lcu_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "microbench.ssb_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "microbench.writer_wait_cycles", Unit: "cycles", Better: "lower"},
	{Name: "obs.capture_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "stm.exec_cycles_per_txn", Unit: "cycles", Better: "lower"},
	{Name: "stm.commit_cycles_per_txn", Unit: "cycles", Better: "lower"},
	{Name: "stm.aborts_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "stmbench.swonly_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "stmbench.lcu_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "stmbench.fraser_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "stmbench.allocs_per_txn", Unit: "count", Better: "lower"},

	// Whole-workload figures that are not defined on every workload, or
	// that are 0 or near 0 by design, and so cannot carry a bound.
	{Name: "host_s", Unit: "s", Better: "lower"},
	{Name: "host_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim_cycles_per_cs", Unit: "cycles", Better: "lower"},
	{Name: "sim_lcu_gain_pct", Unit: "%", Better: "higher"},
	{Name: "sim_grant_max_over_min", Unit: "ratio", Better: "lower"},
	{Name: "sim_cycles_per_txn", Unit: "cycles", Better: "lower"},
	{Name: "op_p99_us", Unit: "us", Better: "lower"},
	{Name: "ops_per_s_median", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_us_median", Unit: "us", Better: "lower"},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "fail_share", Unit: "ratio", Better: "lower"},

	// Host-drift guard.
	{Name: "host.calib_ns", Unit: "ns", Better: "lower"},
	{Name: "host.noisy_slices", Unit: "count", Better: "lower"},
}
