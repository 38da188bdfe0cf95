package main

// metricDef names one reported metric. moves, for a per-layer metric, says
// which end-to-end metric it should move and on which workload — the
// prediction a change to that layer is checked against.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the metrics a trace-off run reports, in print order.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "train_s.p50", unit: "s", better: "lower"},
	{name: "train_s.tail", unit: "s", better: "lower"},
	{name: "users_per_s", unit: "1/s", better: "higher"},
	{name: "objective", unit: "obj", better: "lower"},
	{name: "accuracy", unit: "ratio", better: "higher"},
	{name: "uplink_bytes_per_user", unit: "B", better: "lower"},
	{name: "downlink_bytes_per_user", unit: "B", better: "lower"},
	{name: "alloc_mb_per_train", unit: "MB", better: "lower"},
	{name: "max_rss_mb", unit: "MB", better: "lower"},
}

// perLayer are the metrics a trace-on run reports, in print order.
var perLayer = []metricDef{
	{"core.cccp_rounds", "count", "lower", "train_s.p50 on central-har; pinned, so none, on shard-10k"},
	{"core.cut_rounds", "count", "lower", "train_s.p50 and alloc_mb_per_train on central-har"},
	{"core.constraints", "count", "lower", "train_s.p50 and alloc_mb_per_train on central-har"},
	{"core.worker_solve_ns", "ns", "lower", "train_s.p50 on shard-10k, where device solves are a minor share"},
	{"core.worker_solve_allocs", "allocs", "lower", "train_s.p50 on shard-10k, where device solves are a minor share"},
	{"optimize.most_violated_ns", "ns", "lower", "train_s.p50 on central-har"},
	{"optimize.most_violated_allocs", "allocs", "lower", "train_s.p50 on central-har"},
	{"qp.solves", "count", "lower", "train_s.p50 and alloc_mb_per_train on central-har; none on shard-10k"},
	{"qp.iterations", "count", "lower", "train_s.p50 and alloc_mb_per_train on central-har; none on shard-10k"},
	{"qp.iters_per_solve", "count", "lower", "train_s.p50 and alloc_mb_per_train on central-har; none on shard-10k"},
	{"qp.solve_busy_s", "s", "lower", "train_s.p50 and alloc_mb_per_train on central-har; none on shard-10k"},
	{"qp.gram_busy_s", "s", "lower", "train_s.p50 and alloc_mb_per_train on central-har; none on shard-10k"},
	{"qp.solve_ns", "ns", "lower", "train_s.p50 and alloc_mb_per_train on central-har; none on shard-10k"},
	{"qp.solve_bytes", "B", "lower", "train_s.p50 and alloc_mb_per_train on central-har; none on shard-10k"},
	{"qp.solve_allocs", "allocs", "lower", "train_s.p50 and alloc_mb_per_train on central-har; none on shard-10k"},
	{"qp.project_simplex_ns", "ns", "lower", "train_s.p50 and alloc_mb_per_train on central-har; none on shard-10k"},
	{"qp.project_simplex_allocs", "allocs", "lower", "train_s.p50 and alloc_mb_per_train on central-har; none on shard-10k"},
	{"qp.gram_grow_ns", "ns", "lower", "train_s.p50 and alloc_mb_per_train on central-har; none on shard-10k"},
	{"mat.mulvec_ns", "ns", "lower", "train_s.p50 on central-har"},
	{"admm.rounds", "count", "lower", "train_s.p50 on shard-10k, where it is pinned"},
	{"admm.round_s.p50", "s", "lower", "train_s.p50 on shard-10k"},
	{"admm.step_ns", "ns", "lower", "train_s.p50 on shard-10k"},
	{"admm.step_allocs", "allocs", "lower", "train_s.p50 on shard-10k"},
	{"shard.fold_ns", "ns", "lower", "train_s.p50 on shard-10k"},
	{"shard.agg_link_bytes", "B", "lower", "expected not to move (shard-10k)"},
	{"protocol.us_per_device_round", "us", "lower", "train_s.p50 and users_per_s on shard-10k"},
	{"protocol.devices_dropped", "count", "lower", "failed count on shard-10k"},
	{"transport.messages", "count", "lower", "train_s.p50 and the byte metrics on shard-10k"},
	{"transport.encode_ns", "ns", "lower", "train_s.p50 on shard-10k"},
	{"transport.decode_ns", "ns", "lower", "train_s.p50 on shard-10k"},
	{"transport.codec_allocs", "allocs", "lower", "train_s.p50 and alloc_mb_per_train on shard-10k"},
	{"transport.send_busy_s", "s", "lower", "train_s.p50 on shard-10k"},
	{"transport.recv_busy_s", "s", "lower", "train_s.p50 on shard-10k"},
	{"transport.retries", "count", "lower", "must stay 0; failed count on shard-10k"},
	{"parallel.busy_share", "ratio", "higher", "users_per_s on central-har"},
	{"obs.overhead_ratio", "ratio", "lower", "guards every end-to-end metric; the bar is < 0.02"},
}
