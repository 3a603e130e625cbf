package main

// metricSpec declares one metric: BENCHMARK.json repeats these tables and
// the smoke test holds the two to each other.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd is what a meter, a dashboard and an operator see. Every workload
// reports every one of them; which workload stresses which is README.md's
// table. All are measured with tracing off.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"acked_batches_per_s", "1/s", "higher", 0.25},
	{"ack_p50_us", "us", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"window_p50_us", "us", "lower", 0.25},
	{"fleet_p50_us", "us", "lower", 0.25},
	{"recover_crash_ms", "ms", "lower", 0.25},
	{"recover_clean_ms", "ms", "lower", 0.25},
	{"wire_bytes_per_symbol", "B", "lower", 0.01},
	{"disk_bytes_per_symbol", "B", "lower", 0.02},
	{"resident_bytes_per_symbol", "B", "lower", 0.02},
}

// perLayer is named <package>.<metric>. None is gated; README.md says which
// end-to-end metric each should move, and on which workload.
var perLayer = []metricSpec{
	// pkg/client: what the callers saw beyond the gated medians.
	{name: "client.ack_p99w_us", unit: "us", better: "lower"},
	{name: "client.query_p99w_us", unit: "us", better: "lower"},
	{name: "client.ack_max_ms", unit: "ms", better: "lower"},
	{name: "client.hist_p50_us", unit: "us", better: "lower"},
	{name: "client.fleethist_p50_us", unit: "us", better: "lower"},
	{name: "client.session_open_p50_us", unit: "us", better: "lower"},
	{name: "client.warmup_ms", unit: "ms", better: "lower"},
	{name: "client.retries", unit: "count", better: "lower"},
	{name: "client.ack_residual_us", unit: "us", better: "lower"},
	{name: "client.query_residual_us", unit: "us", better: "lower"},
	{name: "client.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "client.query_trace_overhead_pct", unit: "%", better: "lower"},
	// internal/transport
	{name: "transport.decode_batch_ns", unit: "ns", better: "lower"},
	{name: "transport.ack_encode_ns", unit: "ns", better: "lower"},
	{name: "transport.query_codec_ns", unit: "ns", better: "lower"},
	{name: "transport.frames_in", unit: "count", better: "lower"},
	{name: "transport.bytes_in", unit: "B", better: "lower"},
	// internal/server
	{name: "server.store_append_ns", unit: "ns", better: "lower"},
	{name: "server.collect_range_ns", unit: "ns", better: "lower"},
	{name: "server.batch_commit_p50_us", unit: "us", better: "lower"},
	{name: "server.query_exec_p50_us", unit: "us", better: "lower"},
	{name: "server.tail_locks_per_query", unit: "ratio", better: "lower"},
	{name: "server.duplicates", unit: "count", better: "lower"},
	{name: "server.refusals", unit: "count", better: "lower"},
	// internal/storage
	{name: "storage.append_seq_us", unit: "us", better: "lower"},
	{name: "storage.wal_self_us", unit: "us", better: "lower"},
	{name: "storage.wal_append_p50_us", unit: "us", better: "lower"},
	{name: "storage.fsync_p50_us", unit: "us", better: "lower"},
	{name: "storage.fsyncs", unit: "count", better: "lower"},
	{name: "storage.batches_per_fsync", unit: "ratio", better: "higher"},
	{name: "storage.preload_batches_per_s", unit: "1/s", better: "higher"},
	{name: "storage.replay_symbols_per_s", unit: "1/s", better: "higher"},
	{name: "storage.restore_symbols_per_s", unit: "1/s", better: "higher"},
	{name: "storage.wal_bytes_per_symbol", unit: "B", better: "lower"},
	{name: "storage.segment_bytes_per_symbol", unit: "B", better: "lower"},
	{name: "storage.flush_ms", unit: "ms", better: "lower"},
	{name: "storage.faults", unit: "count", better: "lower"},
	// internal/query
	{name: "query.window_ns", unit: "ns", better: "lower"},
	{name: "query.hist_ns", unit: "ns", better: "lower"},
	{name: "query.fleet_us", unit: "us", better: "lower"},
	{name: "query.fleethist_us", unit: "us", better: "lower"},
	{name: "query.serve_self_ns", unit: "ns", better: "lower"},
	{name: "query.wire_over_inproc_window", unit: "ratio", better: "lower"},
	// internal/symbolic
	{name: "symbolic.pack_ns_per_batch", unit: "ns", better: "lower"},
	{name: "symbolic.unpack_ns_per_batch", unit: "ns", better: "lower"},
	{name: "symbolic.kernel_agg_ns", unit: "ns", better: "lower"},
	{name: "symbolic.kernel_hist_ns", unit: "ns", better: "lower"},
	{name: "symbolic.encode_points_per_s", unit: "1/s", better: "higher"},
	{name: "symbolic.learn_ms", unit: "ms", better: "lower"},
	{name: "symbolic.mae_w", unit: "W", better: "lower"},
	// the whole process, over the timed phases
	{name: "process.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "process.allocs_per_op", unit: "count", better: "lower"},
	{name: "process.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "process.peak_rss_mb", unit: "MB", better: "lower"},
}
