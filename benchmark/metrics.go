package main

// metricDef names one reported metric and its unit. These two tables are
// the benchmark's vocabulary: BENCHMARK.json lists exactly the same names
// and units (a test holds them equal) and later issues cite them verbatim.
type metricDef struct {
	name string
	unit string
}

// endToEnd is what a user of the system sees, gated by the bounds in
// BENCHMARK.json. Every workload reports every one, none is ever zero.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"search_p50_ms", "ms"},
	{"search_p90_ms", "ms"},
	{"search_qps", "queries/s"},
	{"top1_correct_share", "ratio"},
	{"index_heap_mb", "MiB"},
}

// perLayer has no bounds. The first four are end-to-end numbers the gate
// cannot take: the device-clock pair repeats exactly (the driver refuses a
// time that never varies, hence the sim_ units), enroll_p50_ms exists on
// one workload only, and failed_share is zero on a healthy run. A metric a
// workload never exercises reads 0 there.
var perLayer = []metricDef{
	{"sim_search_ms", "sim_ms"},
	{"sim_images_per_s", "images/sim_s"},
	{"enroll_p50_ms", "ms"},
	{"failed_share", "ratio"},

	{"http.roundtrip_ms", "ms"},
	{"http.self_ms", "ms"},
	{"http.decode_ms", "ms"},
	{"http.encode_ms", "ms"},
	{"http.request_kb", "KiB"},
	{"http.response_kb", "KiB"},
	{"http.alloc_kb_per_search", "KiB"},
	{"http.search_p99_ms", "ms"},

	{"wire.decode_ms", "ms"},
	{"wire.encode_ms", "ms"},
	{"wire.record_kb", "KiB"},

	{"serve.mean_batch", "queries"},
	{"serve.batches_per_s", "1/s"},
	{"serve.self_ms", "ms"},

	{"cluster.search_ms", "ms"},
	{"cluster.self_ms", "ms"},
	{"cluster.merged_len", "count"},
	{"cluster.shard_skew", "ratio"},
	{"cluster.retries", "count"},
	{"cluster.partials", "count"},
	{"cluster.update_ms", "ms"},
	{"cluster.compact_ms", "ms"},

	{"engine.search_ms", "ms"},
	{"engine.searchbatch_ms", "ms"},
	{"engine.self_ms", "ms"},
	{"engine.compared_per_search", "count"},
	{"engine.scanned_per_search", "count"},
	{"engine.allocs_per_search", "count"},
	{"engine.alloc_kb_per_search", "KiB"},
	{"engine.update_ms", "ms"},
	{"engine.update_wait_ms", "ms"},
	{"engine.compact_ms", "ms"},
	{"engine.batches_after_churn", "count"},

	{"cache.gpu_items", "count"},
	{"cache.host_items", "count"},
	{"cache.host_share", "ratio"},
	{"cache.gpu_used_mb", "MiB"},
	{"cache.host_used_mb", "MiB"},

	{"binq.scan_ms", "ms"},
	{"binq.codes_per_s", "codes/s"},
	{"binq.select_ms", "ms"},
	{"binq.encode_ms", "ms"},
	{"binq.candidate_recall", "ratio"},

	{"knn.stage_query_ms", "ms"},
	{"knn.match_batch_ms", "ms"},
	{"knn.match_candidates_ms", "ms"},
	{"knn.match_multiquery_ms", "ms"},

	{"blas.hgemm_ms", "ms"},
	{"blas.hgemm_gflops", "Gflop/s"},
	{"blas.gemm_ms", "ms"},
	{"blas.gemm_gflops", "Gflop/s"},
	{"blas.top2_ms", "ms"},
	{"blas.stage_half_ms", "ms"},

	{"match.score_ms", "ms"},
	{"match.rank_ms", "ms"},

	{"gpusim.gemm_us", "sim_us"},
	{"gpusim.top2_us", "sim_us"},
	{"gpusim.h2d_us", "sim_us"},
	{"gpusim.binscan_us", "sim_us"},
	{"gpusim.other_us", "sim_us"},
	{"gpusim.ops_per_search", "count"},
	{"gpusim.h2d_ops", "count"},
	{"gpusim.overlap", "ratio"},
	{"gpusim.peak_alloc_mb", "MiB"},

	{"kvstore.set_ms", "ms"},
	{"kvstore.value_kb", "KiB"},
	{"kvstore.keys", "count"},

	{"sift.extract_query_ms", "ms"},
	{"sift.extract_ref_ms", "ms"},
	{"sift.blur_ms", "ms"},
	{"sift.rootsift_ms", "ms"},
	{"sift.features_per_query", "count"},
	{"sift.allocs_per_extract", "count"},

	{"runtime.alloc_kb_per_query", "KiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_max_us", "us"},
	{"runtime.cpu_util", "ratio"},
	{"runtime.heap_peak_mb", "MiB"},

	{"loadgen.writer_late_p99_ms", "ms"},
	{"loadgen.enroll_p90_ms", "ms"},

	{"trace.unaccounted_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

// alwaysMeasured is how many leading perLayer entries every run measures,
// traced or not.
const alwaysMeasured = 4
