package service

import (
	"repro/internal/archivedb"
	"repro/internal/metrics"
)

// Metrics declares the service's operational counters over one
// metrics.Registry: per-route request-latency histograms, job lifecycle
// counters, and two slots sampled at scrape time that NewServerWith
// binds (gauges: executor queue depth, store size, breaker state; tail:
// the cache and storage-engine families and live streams). /metrics
// writes them in the order NewMetrics declares them, routes sorted, so
// the exposition is byte-deterministic for a given state.
type Metrics struct {
	reg      *metrics.Registry
	requests metrics.HistogramVec // by route pattern, e.g. "GET /jobs/{id}"
	gauges   *metrics.Sampled     // queue depth, store size, breaker state

	// Jobs by state.
	jobsStarted *metrics.Counter
	jobsDone    *metrics.Counter
	jobsFailed  *metrics.Counter

	// Robustness counters.
	transitions metrics.CounterVec // breaker transitions by target state
	retries     *metrics.Counter
	panics      *metrics.Counter
	shed        *metrics.Counter

	// Live-streaming counters (POST /ingest, GET /watch).
	ingestBatches  *metrics.Counter
	ingestEvents   *metrics.Counter
	ingestRejected *metrics.Counter
	watchConns     *metrics.Counter

	// Analytical-query (v2) counters: queries served, and jobs
	// scanned vs pruned by zone maps across all of them.
	query2Queries *metrics.Counter
	query2Scanned *metrics.Counter
	query2Pruned  *metrics.Counter

	tail *metrics.Sampled // caches, storage engine, live streams
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	r := metrics.NewRegistry()
	m := &Metrics{reg: r}
	m.requests = r.HistogramVec("granula_http_request_duration_seconds", "HTTP request latency by route.", "route")
	jobs := r.CounterVec("granula_executor_jobs_total", "Jobs by terminal state.", "state", "started", "done", "failed")
	m.jobsStarted, m.jobsDone, m.jobsFailed = jobs.With("started"), jobs.With("done"), jobs.With("failed")
	m.gauges = r.Sampled()
	m.transitions = r.CounterVec("granula_breaker_transitions_total", "Circuit-breaker transitions by target state.", "state",
		breakerClosed.String(), breakerHalfOpen.String(), breakerOpen.String())
	m.retries = r.Counter("granula_retries_total", "Archive-persistence retries.")
	m.panics = r.Counter("granula_panics_recovered_total", "Panics caught by worker and handler isolation.")
	m.shed = r.Counter("granula_shed_total", "Requests shed by admission control (429) or degraded mode (503).")
	m.ingestBatches = r.Counter("granula_stream_ingest_batches_total", "Accepted live-stream ingest batches.")
	m.ingestEvents = r.Counter("granula_stream_ingest_events_total", "Events applied through live-stream ingest.")
	m.ingestRejected = r.Counter("granula_stream_ingest_rejected_total", "Rejected live-stream ingest batches.")
	m.watchConns = r.Counter("granula_watch_connections_total", "Accepted /watch SSE connections.")
	m.query2Queries = r.Counter("granula_query2_queries_total", "Analytical (v2) aggregate queries served.")
	m.query2Scanned = r.Counter("granula_query2_segments_scanned_total", "Columnar segments scanned by v2 queries.")
	m.query2Pruned = r.Counter("granula_query2_segments_pruned_total", "Columnar segments skipped by zone-map pruning.")
	m.tail = r.Sampled()
	return m
}

// writeGauges is the sampler body of Metrics.gauges.
func writeGauges(e *metrics.Emitter, queueDepth, storeJobs int, breaker breakerState) {
	e.Gauge("granula_executor_queue_depth", "Jobs waiting for a worker.", int64(queueDepth))
	e.Gauge("granula_store_jobs", "Archived jobs held in the store.", int64(storeJobs))
	e.Gauge("granula_breaker_state", "Archive-persistence circuit breaker (0=closed, 1=half-open, 2=open).", int64(breaker))
}

// writeCaches opens Metrics.tail; c is nil, and the family absent, when
// the response cache is disabled.
func writeCaches(e *metrics.Emitter, c *respCacheStats) {
	if c == nil {
		return
	}
	e.Counter("granula_respcache_hits_total", "HTTP response cache hits.", c.Hits)
	e.Counter("granula_respcache_misses_total", "HTTP response cache misses (handler renders).", c.Misses)
	e.Counter("granula_respcache_not_modified_total", "Conditional requests answered 304 Not Modified.", c.NotModified)
	e.Counter("granula_respcache_evictions_total", "Responses evicted by LRU pressure.", c.Evictions)
	e.Gauge("granula_respcache_entries", "Responses held in the cache.", int64(c.Size))
}

// writeStorage continues Metrics.tail with one archivedb snapshot per
// scrape; st is nil, and the family absent, when the store runs without
// durability.
func writeStorage(e *metrics.Emitter, st *archivedb.Stats) {
	if st == nil {
		return
	}
	e.Counter("granula_groupcommit_batches_total", "WAL group-commit batches flushed.", st.GroupCommits)
	e.Counter("granula_groupcommit_records_total", "Records appended through group commit.", st.GroupCommitRecords)
	e.Counter("granula_groupcommit_fsyncs_total", "Shared fsyncs issued by the committer.", st.GroupCommitFsyncs)
	e.Gauge("granula_groupcommit_max_batch", "Largest batch flushed in one group commit.", int64(st.GroupCommitMaxBatch))
	e.Gauge("granula_storage_segments", "WAL segment files on disk.", int64(st.Segments))
	e.Gauge("granula_storage_live_jobs", "Live records in the storage engine.", int64(st.LiveJobs))
	e.Gauge("granula_storage_live_bytes", "WAL bytes referenced by live records.", st.LiveBytes)
	e.Gauge("granula_storage_dead_bytes", "WAL bytes reclaimable by compaction.", st.DeadBytes)
	e.Gauge("granula_storage_wal_bytes", "Total WAL bytes on disk.", st.WALBytes)
	e.Counter("granula_storage_compactions_total", "Completed compactions.", st.Compactions)
	e.Counter("granula_storage_reclaimed_bytes_total", "Bytes reclaimed by compaction.", uint64(st.ReclaimedBytes))
	e.Counter("granula_storage_snapshots_total", "Index snapshots written.", st.Snapshots)
	e.Gauge("granula_storage_recovery_replayed_records", "WAL records replayed at the last open.", int64(st.RecoveredRecords))
	e.Gauge("granula_storage_recovery_snapshot_records", "Index entries restored from the snapshot at the last open.", int64(st.RecoveredFromSnapshot))
	e.Gauge("granula_storage_recovery_truncated_bytes", "Torn-tail bytes truncated at the last open.", st.TruncatedBytes)
}

// writeLiveJobs closes Metrics.tail.
func writeLiveJobs(e *metrics.Emitter, live int) {
	e.Gauge("granula_stream_live_jobs", "Jobs currently streaming (external ingest plus in-process mirrors).", int64(live))
}
