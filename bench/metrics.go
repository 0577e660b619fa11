package main

// metricDef names one metric the benchmark prints. BENCHMARK.json at the
// repository root carries the same names, units and directions (the test
// holds the two together); bounds live only there.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system would see, measured with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"exchange_refops_p50", "refop", "lower"},
	{"wire_bytes_per_step", "B", "lower"},
	{"final_loss", "nats", "lower"},
	{"test_acc", "frac", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics of the traced run, named
// <layer>.<metric>.
var perLayer = []metricDef{
	{"nn.compute_ms", "ms", "lower"},
	{"ps.worker_encode_ms", "ms", "lower"},
	{"ps.worker_apply_ms", "ms", "lower"},
	{"ps.server_add_push_ms", "ms", "lower"},
	{"ps.server_finish_ms", "ms", "lower"},
	{"kernel.encode_ns_per_elem", "ns", "lower"},
	{"kernel.decode_add_ns_per_elem", "ns", "lower"},
	{"kernel.memcpy_gbps", "GB/s", "higher"},
	{"compress.compress_ms", "ms", "lower"},
	{"compress.decompress_add_ms", "ms", "lower"},
	{"compress.push_bits_per_elem", "bit", "lower"},
	{"compress.pull_bits_per_elem", "bit", "lower"},
	{"compress.zero_frac", "frac", "higher"},
	{"entropy.huffman_ratio", "ratio", "higher"},
	{"entropy.huffman_encode_ms", "ms", "lower"},
	{"entropy.huffman_decode_ms", "ms", "lower"},
	{"entropy.lz_ratio", "ratio", "higher"},
	{"transport.pushpull_ms", "ms", "lower"},
	{"transport.push_write_ms", "ms", "lower"},
	{"transport.barrier_wait_ms", "ms", "lower"},
	{"transport.server_turnaround_ms", "ms", "lower"},
	{"transport.pull_read_ms", "ms", "lower"},
	{"transport.frame_encode_ms", "ms", "lower"},
	{"transport.frame_decode_ms", "ms", "lower"},
	{"transport.frame_overhead_bytes", "B", "lower"},
	{"transport.writes_per_step", "count", "lower"},
	{"transport.reads_per_step", "count", "lower"},
	{"shard.imbalance", "ratio", "lower"},
	{"shard.skew_ms", "ms", "lower"},
	{"shaper.wire_wait_ms", "ms", "lower"},
	{"shaper.rate_err_frac", "frac", "lower"},
	{"netsim.pred_step_ms", "ms", "lower"},
	{"netsim.pred_err_frac", "frac", "lower"},
	{"runtime.allocs_per_step", "count", "lower"},
	{"runtime.gc_pause_ms_per_step", "ms", "lower"},
	{"step.peer_wait_ms", "ms", "lower"},
	{"step.p50_ms", "ms", "lower"},
	{"step.p90_ms", "ms", "lower"},
	{"exchange.p50_ms", "ms", "lower"},
	{"exchange.p90_ms", "ms", "lower"},
	{"step.per_s", "1/s", "higher"},
	{"step.cpu_ms", "ms", "lower"},
	{"host.refop_ms", "ms", "lower"},
	{"ledger.unattributed_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// metricValue is one printed measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect pairs the measured values with their definitions. A definition
// without a value is reported as missing: the benchmark must print every
// metric it names.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, missing
}
