package main

// metric declares one benchmark metric. BENCHMARK.json repeats these
// tables for the driver; benchmark_test.go keeps the two in step.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	// Per-layer metrics carry no bound.
	bound float64
}

// endToEnd lists what a user of the join sees, reported for every
// workload by a run with tracing off. The four timings carry the widest
// bound the driver allows: on the 2-core container the benchmark was
// written on, ten runs of one workload spread by 2-5% of their median
// in a quiet quarter of an hour and by 6-13% in a noisy one, and a bound
// has to stay clear of the spread (README.md, "Noise").
var endToEnd = []metric{
	// Input generation + oracle + one warm-up join; median of setupReps.
	{"setup_s", "s", "lower", 0.25},
	// Median wall time of one core.Join.
	{"join_wall_s", "s", "lower", 0.25},
	// (|R|+|S|) / join_wall_s at the workload's stated size.
	{"records_per_s", "1/s", "higher", 0.25},
	// Median wall time from the core.Join call to the first emit: the
	// paper's pipelining argument for on-line duplicate removal.
	{"first_result_s", "s", "lower", 0.25},
	// 1 + charged cost units / input pages: the device cost of the join
	// per page of input, counting the (free) read of the input as one
	// unit per page so that the in-memory workload reads 1 and not 0.
	// The same on every repetition of one seed.
	{"io_amplification", "x", "lower", 0.01},
	// runtime.MemStats.TotalAlloc delta of one join / (|R|+|S|), median.
	{"alloc_bytes_per_record", "B", "lower", 0.05},
}

// perLayer lists the cells of single layers, reported by a traced run.
// A cell reads 0 on a workload that does not run it.
var perLayer = []metric{
	// pbsm stage: Result.PBSMStats and the spans under join:pbsm.
	{name: "pbsm.partition_wall_s", unit: "s", better: "lower"},
	{name: "pbsm.repartition_wall_s", unit: "s", better: "lower"},
	{name: "pbsm.joinphase_wall_s", unit: "s", better: "lower"},
	{name: "pbsm.dup_wall_s", unit: "s", better: "lower"},
	{name: "pbsm.partition_io_units", unit: "count", better: "lower"},
	{name: "pbsm.repartition_io_units", unit: "count", better: "lower"},
	{name: "pbsm.joinphase_io_units", unit: "count", better: "lower"},
	{name: "pbsm.dup_io_units", unit: "count", better: "lower"},
	{name: "pbsm.partitions", unit: "count", better: "lower"},
	{name: "pbsm.repartitions", unit: "count", better: "lower"},
	{name: "pbsm.memory_overflows", unit: "count", better: "lower"},
	{name: "pbsm.copies_per_record", unit: "x", better: "lower"},
	{name: "pbsm.sweep_tests", unit: "count", better: "lower"},
	{name: "pbsm.tests_per_result", unit: "x", better: "lower"},
	{name: "pbsm.dup_suppressed_share", unit: "share", better: "lower"},
	{name: "pbsm.first_result_io_units", unit: "count", better: "lower"},
	// pbsm kernels [pbsm_ext].
	{name: "pbsm.partition_recs_per_s", unit: "1/s", better: "higher"},
	{name: "pbsm.pairexec_recs_per_s", unit: "1/s", better: "higher"},

	// s3j stage [s3j_ext]: Result.S3JStats and the spans under join:s3j.
	{name: "s3j.partition_wall_s", unit: "s", better: "lower"},
	{name: "s3j.sort_wall_s", unit: "s", better: "lower"},
	{name: "s3j.scan_wall_s", unit: "s", better: "lower"},
	{name: "s3j.partition_io_units", unit: "count", better: "lower"},
	{name: "s3j.sort_io_units", unit: "count", better: "lower"},
	{name: "s3j.scan_io_units", unit: "count", better: "lower"},
	{name: "s3j.copies_per_record", unit: "x", better: "lower"},
	{name: "s3j.dup_suppressed_share", unit: "share", better: "lower"},
	{name: "s3j.sort_runs", unit: "count", better: "lower"},
	{name: "s3j.merge_passes", unit: "count", better: "lower"},
	{name: "s3j.sweep_tests", unit: "count", better: "lower"},
	{name: "s3j.max_resident_bytes", unit: "B", better: "lower"},

	// sweep kernels [pbsm_mem].
	{name: "sweep.list_ns_per_test", unit: "ns", better: "lower"},
	{name: "sweep.trie_ns_per_test", unit: "ns", better: "lower"},
	{name: "sweep.list_recs_per_s", unit: "1/s", better: "higher"},
	{name: "sweep.trie_recs_per_s", unit: "1/s", better: "higher"},
	{name: "sweep.list_tests_per_result", unit: "x", better: "lower"},
	{name: "sweep.trie_tests_per_result", unit: "x", better: "lower"},
	{name: "sweep.trie_touches_per_result", unit: "x", better: "lower"},

	// geom kernels [pbsm_ext].
	{name: "geom.encode_ns_per_rec", unit: "ns", better: "lower"},
	{name: "geom.decode_ns_per_rec", unit: "ns", better: "lower"},

	// recfile kernels [pbsm_ext]: framing and CRC-32C included.
	{name: "recfile.write_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "recfile.read_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "recfile.file_bytes_per_payload_byte", unit: "x", better: "lower"},

	// diskio stage (every workload): Result.IO of the traced join.
	{name: "diskio.cost_units", unit: "count", better: "lower"},
	{name: "diskio.read_requests", unit: "count", better: "lower"},
	{name: "diskio.write_requests", unit: "count", better: "lower"},
	{name: "diskio.pages_read", unit: "count", better: "lower"},
	{name: "diskio.pages_written", unit: "count", better: "lower"},
	{name: "diskio.retries", unit: "count", better: "lower"},
	// diskio kernels [pbsm_ext]: raw File writer and reader.
	{name: "diskio.write_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "diskio.read_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "diskio.cost_units_per_mb", unit: "1/MB", better: "lower"},

	// extsort kernel: KPE records [s3j_ext], result pairs [pbsm_dupsort].
	{name: "extsort.kpe_recs_per_s", unit: "1/s", better: "higher"},
	{name: "extsort.pair_recs_per_s", unit: "1/s", better: "higher"},
	{name: "extsort.runs", unit: "count", better: "lower"},
	{name: "extsort.merge_passes", unit: "count", better: "lower"},
	{name: "extsort.comparisons_per_rec", unit: "x", better: "lower"},
	{name: "extsort.io_units_per_rec", unit: "x", better: "lower"},

	// sfc kernels [s3j_ext].
	{name: "sfc.peano_ns_per_code", unit: "ns", better: "lower"},
	{name: "sfc.sizelevel_ns_per_rect", unit: "ns", better: "lower"},
	{name: "sfc.overlapcells_ns_per_rect", unit: "ns", better: "lower"},

	// sched kernels [pbsm_dupsort].
	{name: "sched.collector_inorder_ns_per_pair", unit: "ns", better: "lower"},
	{name: "sched.collector_reorder_ns_per_pair", unit: "ns", better: "lower"},
	{name: "sched.run_ns_per_unit", unit: "ns", better: "lower"},

	// shard stage [pbsm_shards2]: Stats of a direct shard.Join.
	{name: "shard.spawns", unit: "count", better: "lower"},
	{name: "shard.restarts", unit: "count", better: "lower"},
	{name: "shard.kills", unit: "count", better: "lower"},
	{name: "shard.absorbed", unit: "count", better: "lower"},
	{name: "shard.degraded", unit: "count", better: "lower"},
	{name: "shard.seals", unit: "count", better: "lower"},
	{name: "shard.worker_cpu_s", unit: "s", better: "lower"},
	{name: "shard.worker_live_files", unit: "count", better: "lower"},
	// shard kernels [pbsm_shards2].
	{name: "shard.frame_write_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "shard.frame_read_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "shard.frame_bytes_per_payload_byte", unit: "x", better: "lower"},
	{name: "shard.empty_join_s", unit: "s", better: "lower"},

	// trace and core (every workload).
	{name: "trace.spans", unit: "count", better: "lower"},
	{name: "trace.coverage", unit: "share", better: "higher"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
	{name: "core.unattributed_share", unit: "share", better: "lower"},
}

// values maps metric names to measurements.
type values map[string]float64
