package main

import (
	"sort"
	"strings"
)

// metricDef describes one metric: its unit, which way is better, and
// where it is reported.
type metricDef struct {
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare (and the driver) calls it a
	// regression. Per-layer metrics have none: bound is 0.
	bound float64
	// dense metrics are reported by every workload, so BENCHMARK.json
	// can list them: the driver wants every listed metric from every
	// run. The others exist only on the workloads that declare them and
	// live in the result file, the printout and -compare.
	dense bool
}

func (d metricDef) endToEnd() bool { return d.bound > 0 }

// Regression bounds. A named timing may worsen by 10 % and an exact
// count by 1 %, as the issue sets them. The headline latency and the
// set-up time, which the driver gates, have the contract's ceiling of
// 25 %: the driver refuses a benchmark whose spread over ten seeds
// reaches the bound, one bound has to hold on all six workloads, and on
// the two-core sandbox the headline latency spreads up to 19 % (32 % on
// fig5-pipeline) in a half hour in which the host's speed drifts
// (README.md, "The host"). Heap after a fixed number of ops repeats
// within 2 %.
const (
	boundTiming = 0.10
	boundExact  = 0.01
	boundDriver = 0.25
)

// demotedPrefix marks an end-to-end figure that did not repeat within
// its bound in the calibration runs (results/noise.json). It is still
// measured and printed, under this prefix and without a bound, so
// -compare gives no verdict on it.
const demotedPrefix = "e2e."

// demoted lists the workload/metric pairs the calibration demoted: those
// whose spread in results/noise.json is above their bound.
var demoted = map[string]bool{
	"fig5-pipeline/job_ms_p50":      true, // 15.5 %
	"fig5-pipeline/jobs_per_s":      true, // 18.0 %
	"serve-write/jobs_per_s":        true, // 10.6 %
	"serve-read-mixed/cold_start_s": true, // 12.2 %
	"serve-read-mixed/read_ms_p99":  true, // 13.9 %
	"serve-read-mixed/reads_per_s":  true, // 12.5 %
	"cluster-rw/query2_scan_ms_p50": true, // 14.6 %
}

// defOf looks a reported name up, with or without the demotion prefix;
// a demoted metric keeps its unit and direction and loses its bound.
func defOf(name string) (metricDef, bool) {
	base, wasDemoted := strings.CutPrefix(name, demotedPrefix)
	def, ok := metricDefs[base]
	if wasDemoted {
		def.bound, def.dense = 0, false
	}
	return def, ok
}

var metricDefs = map[string]metricDef{
	// End-to-end metrics every workload reports (BENCHMARK.json).
	// op_ms_p50 is the median latency of the workload's own op;
	// README.md says which named metric that is on each workload.
	"setup_s":      {"s", "lower", boundDriver, true},
	"op_ms_p50":    {"ms", "lower", boundDriver, true},
	"live_heap_mb": {"MB", "lower", boundTiming, true},

	// Named end-to-end metrics, on the workloads that have them.
	"job_ms_p50":             {"ms", "lower", boundTiming, false},
	"job_ms_p95":             {"ms", "lower", boundTiming, false},
	"jobs_per_s":             {"1/s", "higher", boundTiming, false},
	"read_ms_p50":            {"ms", "lower", boundTiming, false},
	"read_ms_p99":            {"ms", "lower", boundTiming, false},
	"reads_per_s":            {"1/s", "higher", boundTiming, false},
	"query2_scan_ms_p50":     {"ms", "lower", boundTiming, false},
	"query2_pruned_ms_p50":   {"ms", "lower", boundTiming, false},
	"query2_cached_ms_p50":   {"ms", "lower", boundTiming, false},
	"cold_start_s":           {"s", "lower", boundTiming, false},
	"disk_bytes_per_job":     {"B", "lower", boundExact, false},
	"ingest_events_per_s":    {"1/s", "higher", boundTiming, false},
	"ingest_to_frame_ms_p50": {"ms", "lower", boundTiming, false},

	// Per-layer metrics every traced run reports: the layer replay.
	"datagen.generate_ms":         {"ms", "lower", 0, true},
	"datagen.edges_per_s":         {"1/s", "higher", 0, true},
	"graph.fragments_ms":          {"ms", "lower", 0, true},
	"graph.bytes_per_edge":        {"B", "lower", 0, true},
	"platforms.run_ms":            {"ms", "lower", 0, true},
	"platforms.self_ms":           {"ms", "lower", 0, true},
	"pregel.run_ms":               {"ms", "lower", 0, true},
	"gas.run_ms":                  {"ms", "lower", 0, true},
	"single.run_ms":               {"ms", "lower", 0, true},
	"pregel.supersteps":           {"count", "lower", 0, true},
	"gas.iterations":              {"count", "lower", 0, true},
	"pregel.alloc_mb_per_job":     {"MB", "lower", 0, true},
	"gas.alloc_mb_per_job":        {"MB", "lower", 0, true},
	"trace.encode_ms":             {"ms", "lower", 0, true},
	"trace.parse_ms":              {"ms", "lower", 0, true},
	"trace.records":               {"count", "lower", 0, true},
	"monitor.assemble_ms":         {"ms", "lower", 0, true},
	"monitor.ops":                 {"count", "lower", 0, true},
	"metrics.derive_ms":           {"ms", "lower", 0, true},
	"core.checkjob_ms":            {"ms", "lower", 0, true},
	"archive.save_ms":             {"ms", "lower", 0, true},
	"archive.load_ms":             {"ms", "lower", 0, true},
	"archive.bytes_per_op":        {"B", "lower", 0, true},
	"viz.render_ms":               {"ms", "lower", 0, true},
	"chokepoint.analyze_ms":       {"ms", "lower", 0, true},
	"service.store_put_ms":        {"ms", "lower", 0, true},
	"service.marshal_ms":          {"ms", "lower", 0, true},
	"service.store_open_ms":       {"ms", "lower", 0, true},
	"service.store_open_mb":       {"MB", "lower", 0, true},
	"archivedb.put_ms":            {"ms", "lower", 0, true},
	"archivedb.open_ms":           {"ms", "lower", 0, true},
	"archivedb.recovered_records": {"count", "lower", 0, true},
	"archivedb.from_snapshot":     {"count", "higher", 0, true},
	"archivedb.get_ms":            {"ms", "lower", 0, true},
	"archivedb.segment_put_ms":    {"ms", "lower", 0, true},
	"archivedb.segment_tail_ms":   {"ms", "lower", 0, true},
	"archivedb.segment_get_ms":    {"ms", "lower", 0, true},
	"query.parse_ms":              {"ms", "lower", 0, true},
	"query.build_columns_ms":      {"ms", "lower", 0, true},
	"query.select_columns_ms":     {"ms", "lower", 0, true},
	"query.encode_segment_ms":     {"ms", "lower", 0, true},
	"query.decode_stats_ms":       {"ms", "lower", 0, true},
	"query.decode_segment_ms":     {"ms", "lower", 0, true},
	"query.aggregate_frame_ms":    {"ms", "lower", 0, true},
	"query.merge_ms":              {"ms", "lower", 0, true},
	"query.render_ms":             {"ms", "lower", 0, true},
	"stream.ingest_ms":            {"ms", "lower", 0, true},
	"stream.events_after_ms":      {"ms", "lower", 0, true},
	"stream.build_archive_ms":     {"ms", "lower", 0, true},
	"stream.append_columns_ms":    {"ms", "lower", 0, true},
	"shard.ring_owners_ns":        {"ns", "lower", 0, true},
	"proc.rss_peak_mb":            {"MB", "lower", 0, true},
	"proc.gc_pause_ms_total":      {"ms", "lower", 0, true},
	"proc.cpu_s":                  {"s", "lower", 0, true},
	"bench.trace_overhead_pct":    {"%", "lower", 0, true},

	// Per-layer counts and ratios read from the program's own counters
	// around the measured passes; 0 where the layer is idle.
	"service.queue_depth_max":      {"count", "lower", 0, true},
	"service.respcache_hit_ratio":  {"ratio", "higher", 0, true},
	"service.respcache_evictions":  {"count", "lower", 0, true},
	"service.not_modified_ratio":   {"ratio", "higher", 0, true},
	"service.querycache_hit_ratio": {"ratio", "higher", 0, true},
	"service.shed_total":           {"count", "lower", 0, true},
	"service.retries_total":        {"count", "lower", 0, true},
	"service.panics_total":         {"count", "lower", 0, true},
	"archivedb.records_per_fsync":  {"ratio", "higher", 0, true},
	"archivedb.fsyncs_per_job":     {"ratio", "lower", 0, true},
	"archivedb.wal_bytes_per_job":  {"B", "lower", 0, true},
	"archivedb.colseg_tail_reads":  {"count", "lower", 0, true},
	"archivedb.colseg_full_reads":  {"count", "lower", 0, true},
	"query.prune_ratio":            {"ratio", "higher", 0, true},
	"query.rows_per_group":         {"ratio", "lower", 0, true},
	"stream.rejected_total":        {"count", "lower", 0, true},
	"stream.watch_connections":     {"count", "lower", 0, true},
	"stream.seal_missing_total":    {"count", "lower", 0, true},
	"shard.acks_per_job":           {"ratio", "lower", 0, true},
	"shard.quorum_missed":          {"count", "lower", 0, true},
	"shard.divergence_probes":      {"count", "lower", 0, true},
	"shard.read_repairs":           {"count", "lower", 0, true},
	"shard.failovers":              {"count", "lower", 0, true},
	"shard.hints_total":            {"count", "lower", 0, true},
	"shard.antientropy_rounds":     {"count", "lower", 0, true},

	// Per-layer times that exist only where the layer works.
	"service.submit_ack_ms":      {"ms", "lower", 0, false},
	"service.done_wait_ms":       {"ms", "lower", 0, false},
	"service.handler_ms.jobs":    {"ms", "lower", 0, false},
	"service.handler_ms.status":  {"ms", "lower", 0, false},
	"service.handler_ms.archive": {"ms", "lower", 0, false},
	"service.handler_ms.query":   {"ms", "lower", 0, false},
	"service.handler_ms.viz":     {"ms", "lower", 0, false},
	"service.handler_ms.query2":  {"ms", "lower", 0, false},
	"service.handler_ms.ingest":  {"ms", "lower", 0, false},
	"service.handler_ms.watch":   {"ms", "lower", 0, false},
	"shard.route_overhead_ms":    {"ms", "lower", 0, false},
	"shard.replicate_ms":         {"ms", "lower", 0, false},
	"shard.query2_gather_ms":     {"ms", "lower", 0, false},
	"bench.generator_lag_ms_p99": {"ms", "lower", 0, false},
}

// denseNames returns the sorted names of the metrics every workload
// reports: the end-to-end ones, or the per-layer ones.
func denseNames(endToEnd bool) []string {
	var out []string
	for name, def := range metricDefs {
		if def.dense && def.endToEnd() == endToEnd {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// handlerRoutes maps the short route names of service.handler_ms.<route>
// to the mux patterns /metrics labels them with.
var handlerRoutes = map[string]string{
	"jobs":    "POST /jobs",
	"status":  "GET /jobs/{id}",
	"archive": "GET /jobs/{id}/archive",
	"query":   "GET /jobs/{id}/query",
	"viz":     "GET /jobs/{id}/viz/{kind}",
	"query2":  "GET /query2",
	"ingest":  "POST /ingest/{id}",
	"watch":   "GET /watch/{id}",
}
