package service

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/archivedb"
	"repro/internal/metrics"
)

// Metrics aggregates the service's operational counters: per-route
// request-latency histograms, job lifecycle counters, and gauges
// sampled at scrape time (executor queue depth, store size). Output is
// Prometheus text exposition format with routes sorted, so /metrics is
// byte-deterministic for a given state.
type Metrics struct {
	mu         sync.Mutex
	requests   map[string]*metrics.Histogram
	jobsStart  uint64
	jobsDone   uint64
	jobsFailed uint64

	// Robustness counters. Every method on Metrics is nil-receiver
	// safe, so instrumented code paths do not guard their hooks.
	retries     uint64
	panics      uint64
	shed        uint64
	transitions map[BreakerState]uint64

	// Live-streaming counters (POST /ingest, GET /watch).
	ingestBatches  uint64
	ingestEvents   uint64
	ingestRejected uint64
	watchConns     uint64

	// Analytical-query (v2) counters: queries served, and segments
	// scanned vs pruned by zone maps across all of them.
	query2Queries uint64
	query2Scanned uint64
	query2Pruned  uint64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:    map[string]*metrics.Histogram{},
		transitions: map[BreakerState]uint64{},
	}
}

// CountRetry counts one archive-persistence retry.
func (m *Metrics) CountRetry() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.retries++
	m.mu.Unlock()
}

// CountPanicRecovered counts one panic caught by a worker or handler.
func (m *Metrics) CountPanicRecovered() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// CountShed counts one request shed by admission control (429) or
// degraded read-only mode (503).
func (m *Metrics) CountShed() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.shed++
	m.mu.Unlock()
}

// CountQuery2 counts one served analytical (v2) query and how many
// per-job segments it scanned vs pruned via zone maps.
func (m *Metrics) CountQuery2(scanned, pruned int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.query2Queries++
	m.query2Scanned += uint64(scanned)
	m.query2Pruned += uint64(pruned)
	m.mu.Unlock()
}

// CountIngestBatch counts one accepted ingest batch and its newly
// applied events.
func (m *Metrics) CountIngestBatch(events int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.ingestBatches++
	m.ingestEvents += uint64(events)
	m.mu.Unlock()
}

// CountIngestRejected counts one rejected ingest batch (gap, overflow,
// bad shape, or sealed job).
func (m *Metrics) CountIngestRejected() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.ingestRejected++
	m.mu.Unlock()
}

// CountWatch counts one accepted /watch connection.
func (m *Metrics) CountWatch() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.watchConns++
	m.mu.Unlock()
}

// BreakerTransition counts one circuit-breaker transition into state.
func (m *Metrics) BreakerTransition(state BreakerState) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.transitions[state]++
	m.mu.Unlock()
}

// Robustness returns the (retries, panics recovered, shed) counters.
func (m *Metrics) Robustness() (retries, panics, shed uint64) {
	if m == nil {
		return 0, 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retries, m.panics, m.shed
}

// ObserveRequest records one served request's latency under its route
// pattern (e.g. "GET /jobs/{id}").
func (m *Metrics) ObserveRequest(route string, seconds float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h, ok := m.requests[route]
	if !ok {
		h = &metrics.Histogram{}
		m.requests[route] = h
	}
	h.Observe(seconds)
	m.mu.Unlock()
}

// JobStarted counts a job leaving the queue for a worker.
func (m *Metrics) JobStarted() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.jobsStart++
	m.mu.Unlock()
}

// JobFinished counts a completed job.
func (m *Metrics) JobFinished(ok bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if ok {
		m.jobsDone++
	} else {
		m.jobsFailed++
	}
	m.mu.Unlock()
}

// CacheStats bundles the read-path cache counters sampled at scrape
// time: the compiled-query LRU and the HTTP response cache.
type CacheStats struct {
	QueryHits   uint64
	QueryMisses uint64
	QuerySize   int
	Resp        RespCacheStats
}

// WritePrometheus renders the registry in Prometheus text exposition
// format. queueDepth, storeJobs, and breaker are gauges sampled by the
// caller at scrape time; storage is the archivedb engine's counters,
// nil when the store runs without durability (the storage family is
// then omitted entirely); caches is the read-path cache counters, nil
// when both caches are disabled.
func (m *Metrics) WritePrometheus(w io.Writer, queueDepth, storeJobs int, storage *archivedb.Stats, breaker BreakerState, caches *CacheStats) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP granula_http_request_duration_seconds HTTP request latency by route.")
	fmt.Fprintln(w, "# TYPE granula_http_request_duration_seconds histogram")
	routes := make([]string, 0, len(m.requests))
	for r := range m.requests {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, route := range routes {
		m.requests[route].Write(w, "granula_http_request_duration_seconds", fmt.Sprintf("route=%q,", route))
	}

	fmt.Fprintln(w, "# HELP granula_executor_jobs_total Jobs by terminal state.")
	fmt.Fprintln(w, "# TYPE granula_executor_jobs_total counter")
	fmt.Fprintf(w, "granula_executor_jobs_total{state=\"started\"} %d\n", m.jobsStart)
	fmt.Fprintf(w, "granula_executor_jobs_total{state=\"done\"} %d\n", m.jobsDone)
	fmt.Fprintf(w, "granula_executor_jobs_total{state=\"failed\"} %d\n", m.jobsFailed)

	fmt.Fprintln(w, "# HELP granula_executor_queue_depth Jobs waiting for a worker.")
	fmt.Fprintln(w, "# TYPE granula_executor_queue_depth gauge")
	fmt.Fprintf(w, "granula_executor_queue_depth %d\n", queueDepth)

	fmt.Fprintln(w, "# HELP granula_store_jobs Archived jobs held in the store.")
	fmt.Fprintln(w, "# TYPE granula_store_jobs gauge")
	fmt.Fprintf(w, "granula_store_jobs %d\n", storeJobs)

	fmt.Fprintln(w, "# HELP granula_breaker_state Archive-persistence circuit breaker (0=closed, 1=half-open, 2=open).")
	fmt.Fprintln(w, "# TYPE granula_breaker_state gauge")
	fmt.Fprintf(w, "granula_breaker_state %d\n", int(breaker))

	fmt.Fprintln(w, "# HELP granula_breaker_transitions_total Circuit-breaker transitions by target state.")
	fmt.Fprintln(w, "# TYPE granula_breaker_transitions_total counter")
	for _, st := range []BreakerState{BreakerClosed, BreakerHalfOpen, BreakerOpen} {
		fmt.Fprintf(w, "granula_breaker_transitions_total{state=%q} %d\n", st.String(), m.transitions[st])
	}

	fmt.Fprintln(w, "# HELP granula_retries_total Archive-persistence retries.")
	fmt.Fprintln(w, "# TYPE granula_retries_total counter")
	fmt.Fprintf(w, "granula_retries_total %d\n", m.retries)

	fmt.Fprintln(w, "# HELP granula_panics_recovered_total Panics caught by worker and handler isolation.")
	fmt.Fprintln(w, "# TYPE granula_panics_recovered_total counter")
	fmt.Fprintf(w, "granula_panics_recovered_total %d\n", m.panics)

	fmt.Fprintln(w, "# HELP granula_shed_total Requests shed by admission control (429) or degraded mode (503).")
	fmt.Fprintln(w, "# TYPE granula_shed_total counter")
	fmt.Fprintf(w, "granula_shed_total %d\n", m.shed)

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("granula_stream_ingest_batches_total", "Accepted live-stream ingest batches.", m.ingestBatches)
	counter("granula_stream_ingest_events_total", "Events applied through live-stream ingest.", m.ingestEvents)
	counter("granula_stream_ingest_rejected_total", "Rejected live-stream ingest batches.", m.ingestRejected)
	counter("granula_watch_connections_total", "Accepted /watch SSE connections.", m.watchConns)
	counter("granula_query2_queries_total", "Analytical (v2) aggregate queries served.", m.query2Queries)
	counter("granula_query2_segments_scanned_total", "Columnar segments scanned by v2 queries.", m.query2Scanned)
	counter("granula_query2_segments_pruned_total", "Columnar segments skipped by zone-map pruning.", m.query2Pruned)
	if caches != nil {
		counter("granula_querycache_hits_total", "Compiled-query cache hits.", caches.QueryHits)
		counter("granula_querycache_misses_total", "Compiled-query cache misses (full parses).", caches.QueryMisses)
		gauge("granula_querycache_entries", "Compiled queries held in the cache.", int64(caches.QuerySize))
		counter("granula_respcache_hits_total", "HTTP response cache hits.", caches.Resp.Hits)
		counter("granula_respcache_misses_total", "HTTP response cache misses (handler renders).", caches.Resp.Misses)
		counter("granula_respcache_not_modified_total", "Conditional requests answered 304 Not Modified.", caches.Resp.NotModified)
		counter("granula_respcache_evictions_total", "Responses evicted by LRU pressure.", caches.Resp.Evictions)
		gauge("granula_respcache_entries", "Responses held in the cache.", int64(caches.Resp.Size))
	}
	if storage == nil {
		return
	}
	counter("granula_groupcommit_batches_total", "WAL group-commit batches flushed.", storage.GroupCommits)
	counter("granula_groupcommit_records_total", "Records appended through group commit.", storage.GroupCommitRecords)
	counter("granula_groupcommit_fsyncs_total", "Shared fsyncs issued by the committer.", storage.GroupCommitFsyncs)
	gauge("granula_groupcommit_max_batch", "Largest batch flushed in one group commit.", int64(storage.GroupCommitMaxBatch))
	gauge("granula_storage_segments", "WAL segment files on disk.", int64(storage.Segments))
	gauge("granula_storage_live_jobs", "Live records in the storage engine.", int64(storage.LiveJobs))
	gauge("granula_storage_live_bytes", "WAL bytes referenced by live records.", storage.LiveBytes)
	gauge("granula_storage_dead_bytes", "WAL bytes reclaimable by compaction.", storage.DeadBytes)
	gauge("granula_storage_wal_bytes", "Total WAL bytes on disk.", storage.WALBytes)
	counter("granula_storage_compactions_total", "Completed compactions.", storage.Compactions)
	counter("granula_storage_reclaimed_bytes_total", "Bytes reclaimed by compaction.", uint64(storage.ReclaimedBytes))
	counter("granula_storage_snapshots_total", "Index snapshots written.", storage.Snapshots)
	gauge("granula_storage_recovery_replayed_records", "WAL records replayed at the last open.", int64(storage.RecoveredRecords))
	gauge("granula_storage_recovery_snapshot_records", "Index entries restored from the snapshot at the last open.", int64(storage.RecoveredFromSnapshot))
	gauge("granula_storage_recovery_truncated_bytes", "Torn-tail bytes truncated at the last open.", storage.TruncatedBytes)
	counter("granula_storage_colseg_writes_total", "Columnar segments written.", storage.ColSegWrites)
	counter("granula_storage_colseg_deletes_total", "Columnar segments deleted with their job.", storage.ColSegDeletes)
	counter("granula_storage_colseg_full_reads_total", "Columnar segment body reads (scans).", storage.ColSegFullReads)
	counter("granula_storage_colseg_tail_reads_total", "Columnar segment stats-footer reads (prune checks).", storage.ColSegTailReads)
	counter("granula_storage_colseg_sweeps_total", "Orphaned columnar segments removed by compaction sweeps.", storage.ColSegSweeps)
}
