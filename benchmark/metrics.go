package main

// workloadDef is one workload: the reason it exists, its measured size,
// the size of the small traced instance that supplies its layer metrics
// in the traced runs of the other four, and its constructor. A size is a
// dataset and the number of ops in a round; both are constants, so every
// count a round produces repeats exactly. Round sizes aim at about 1.2 s
// on the two-core runner, so a run of run_seconds holds a dozen rounds
// for the median to be taken over.
type workloadDef struct {
	name, why  string
	full, mini size
	new        func(common) instance
}

// workloads are the benchmark's five workloads. BENCHMARK.json repeats
// their names and reasons; a test keeps the two equal.
var workloads = []workloadDef{
	{"scan_small", "cold open + full-axis scan of the five structured topics of a 40 MB bag: container reads, serial plan and index load do the work; bypasses pool, block cache, time index and network",
		size{d1, 36}, size{d0, 5}, func(c common) instance { return &scanSmall{common: c} }},
	{"window_stride", "pooled handle over a block cache the 40 MB bag fits in: one 10 s window read four ways (topic order, stride 10, chronological, small-topic stride); time index, windowed/chrono plans, cache hits",
		size{d1, 240}, size{d0, 20}, func(c common) instance { return &windowStride{common: c} }},
	{"remote_stream", "one client streams 10 s all-topics windows of a 119 MB bag over loopback TCP from an in-process server whose 64 MB block cache the cyclic scan thrashes: client, wire, server credit, pool",
		size{d2, 12}, size{d0, 5}, func(c common) instance { return &remoteStream{common: c} }},
	{"duplicate", "re-organizes a 7 MB source bag into a fresh container per op (paper Fig 9): rosbag reader, organizer, topic writers, time-index build, flush; the write side of the read/write/space trade",
		size{d0, 8}, size{d0, 2}, func(c common) instance { return &duplicate{common: c} }},
	// follow_tail generates its own messages; its ops are batches.
	{"follow_tail", "records into a fresh live bag per round while a local Follow query tails it, in batches of 256 each awaited by the writer: recorder journal, follower wake-up, segment rotation; writes beside reads",
		size{dataset{}, 750}, size{dataset{}, 60}, func(c common) instance { return &followTail{common: c} }},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// e2eMetric is one end-to-end metric: what a user of the system sees.
// bound is the share of the parent's median by which the metric may
// worsen before a change counts as a regression. All but the
// deterministic space ratio carry the largest bound the contract allows:
// on the shared runner identical code spreads by 2-6 % between runs made
// back to back and by 7-28 % between runs spread over a quarter of an
// hour, and a resident set of 20-30 MB moves 10 % with the collector's
// timing (README, "Baseline").
type e2eMetric struct {
	name, unit string
	higher     bool // higher is better
	bound      float64
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", false, 0.25},
	{"msgs_per_s", "msg/s", true, 0.25},
	{"op_p50_ms", "ms", false, 0.25},
	{"stored_bytes_per_payload_byte", "ratio", false, 0.01},
	{"peak_rss_MB", "MB", false, 0.25},
}

// layerMetric is one per-layer metric. moves names the end-to-end metric
// it should move, and on which workload — the prediction a later change
// is checked against. The groups below say where each is measured.
type layerMetric struct {
	name, unit string
	higher     bool
	moves      string
}

var perLayer = []layerMetric{
	// scan_small: cold open and serial topic scan.
	{"core.open_ms", "ms", false, "op_p50_ms on scan_small"},
	{"core.query_ms", "ms", false, "op_p50_ms, msgs_per_s on scan_small"},
	{"core.scan_entries_per_msg", "ratio", false, "msgs_per_s on scan_small"},
	{"core.scan_read_bytes_per_byte", "ratio", false, "msgs_per_s on scan_small"},

	// window_stride: the quad's members, the pooled handle, the cache.
	{"core.q_window_ms", "ms", false, "op_p50_ms on window_stride"},
	{"core.q_stride_ms", "ms", false, "op_p50_ms on window_stride"},
	{"core.q_chrono_ms", "ms", false, "op_p50_ms on window_stride"},
	{"core.q_stride_small_ms", "ms", false, "op_p50_ms on window_stride"},
	{"core.win_entries_per_msg", "ratio", false, "msgs_per_s on window_stride"},
	{"core.windows_per_query", "count", false, "op_p50_ms on window_stride"},
	{"core.stride_entries_per_msg", "ratio", false, "msgs_per_s on window_stride (10 -> 1 once stride is pushed into the index)"},
	{"core.stride_read_bytes_per_byte", "ratio", false, "msgs_per_s on window_stride (10 -> 1 once stride is pushed into the index)"},
	{"pool.acquire_us", "us", false, "op_p50_ms on window_stride"},
	{"pool.handle_hit_ratio", "ratio", true, "op_p50_ms on window_stride"},
	{"pool.block_hit_ratio", "ratio", true, "msgs_per_s on window_stride"},
	{"pool.block_evictions_per_op", "count", false, "msgs_per_s on window_stride (0: the bag fits)"},
	{"pool.fill_bytes_per_byte", "ratio", false, "msgs_per_s on window_stride"},

	// remote_stream: client, wire, server, and a pool that thrashes.
	{"client.dial_ms", "ms", false, "setup_s on remote_stream"},
	{"client.first_msg_ms", "ms", false, "op_p50_ms on remote_stream"},
	{"client.drain_ms", "ms", false, "op_p50_ms, msgs_per_s on remote_stream"},
	{"server.queries_busy", "count", false, "failed ops on remote_stream"},
	{"server.queue_wait_us", "us", false, "op_p50_ms on remote_stream"},
	{"server.disk_ms_per_op", "ms/op", false, "op_p50_ms on remote_stream"},
	{"server.credit_stall_ms_per_op", "ms/op", false, "op_p50_ms on remote_stream"},
	{"wire.writes_per_msg", "ratio", false, "msgs_per_s on remote_stream (1 -> <<1 once frames are batched)"},
	{"wire.bytes_per_payload_byte", "ratio", false, "msgs_per_s on remote_stream"},
	{"pool.remote_handle_hit_ratio", "ratio", true, "op_p50_ms on remote_stream"},
	{"pool.remote_block_hit_ratio", "ratio", true, "msgs_per_s on remote_stream"},
	{"pool.remote_block_evictions_per_op", "count", false, "msgs_per_s on remote_stream (> 0: the scan is larger than the cache)"},
	{"pool.remote_fill_bytes_per_byte", "ratio", false, "msgs_per_s on remote_stream"},

	// duplicate: the container build.
	{"core.duplicate_ms", "ms", false, "op_p50_ms, msgs_per_s on duplicate; setup_s on the read workloads"},
	{"core.remove_ms", "ms", false, "op_p50_ms on duplicate"},
	{"organizer.enqueue_stall_ms_per_op", "ms/op", false, "msgs_per_s on duplicate"},
	{"organizer.append_ms_per_op", "ms/op", false, "msgs_per_s on duplicate"},

	// follow_tail: the live recorder and its follower.
	{"core.follow_batch_write_ms", "ms", false, "op_p50_ms, msgs_per_s on follow_tail"},
	{"core.follow_batch_wait_ms", "ms", false, "op_p50_ms, msgs_per_s on follow_tail"},
	{"core.record_write_us", "us", false, "msgs_per_s on follow_tail"},
	{"core.follow_deliver_us", "us", false, "live-tail latency: reported, not gated"},
	{"core.follow_deliver_tail_us", "us", false, "live-tail latency: reported, not gated"},
	{"core.seal_ms", "ms", false, "setup_s on follow_tail"},
	{"core.follow_segments", "count", false, "stored_bytes_per_payload_byte on follow_tail"},

	// Probes of single layers, on D0, the same in every traced run.
	{"rosbag.write_s", "s", false, "setup_s on all but follow_tail"},
	{"rosbag.scan_msgs_per_s", "msg/s", true, "ceiling of msgs_per_s on duplicate"},
	{"container.index_load_ms", "ms", false, "core.open_ms, so op_p50_ms on scan_small"},
	{"container.read_ns_per_msg", "ns/msg", false, "msgs_per_s on scan_small"},
	{"container.read_cached_ns_per_msg", "ns/msg", false, "msgs_per_s on window_stride"},
	{"container.append_ns_per_msg", "ns/msg", false, "msgs_per_s on duplicate, follow_tail"},
	{"timeindex.build_ms", "ms", false, "msgs_per_s on duplicate; setup_s on the read workloads"},
	{"timeindex.query_us", "us", false, "op_p50_ms on window_stride"},
	{"tagman.build_us", "us", false, "core.open_ms, so op_p50_ms on scan_small"},
	{"tagman.lookup_ns", "ns", false, "core.open_ms, so op_p50_ms on scan_small"},
	{"wire.encode_ns_per_frame", "ns", false, "msgs_per_s on remote_stream"},
	{"wire.decode_ns_per_frame", "ns", false, "msgs_per_s on remote_stream"},

	// The measured workload's own rounds, whatever the workload.
	{"os.read_syscalls_per_msg", "ratio", false, "msgs_per_s, on scan_small above all (1 -> <<1 once reads are coalesced)"},
	{"os.write_syscalls_per_msg", "ratio", false, "msgs_per_s on remote_stream, duplicate"},
	{"os.allocs_per_msg", "ratio", false, "msgs_per_s, peak_rss_MB on all"},
	{"os.alloc_bytes_per_msg", "B/msg", false, "msgs_per_s, peak_rss_MB on all"},
	{"os.cpu_ms_per_kmsg", "ms/kmsg", false, "msgs_per_s on all"},
	{"os.gc_pause_ms_per_s", "ms/s", false, "op tail on all"},
	{"bench.op_tail_ms", "ms", false, "reported, not gated"},
	{"bench.op_tail_pct", "%", false, "the percentile bench.op_tail_ms is"},
	{"bench.op_tail_samples", "count", true, "the samples bench.op_tail_ms is taken over"},
	{"bench.harness_self_share", "ratio", false, "share of op time no layer accounts for; must stay under 0.10"},
	{"obs.trace_overhead_ratio", "ratio", false, "untraced / traced msgs_per_s; reported, not gated"},
}
