package main

// counterInputs is what the counter-derived per-layer metrics are
// computed from: before/after deltas of the counters the program
// already exposes, taken around the measured passes of a traced run. A
// workload leaves out what it does not have; a layer that did no work
// then reads 0.
type counterInputs struct {
	node   counters // GET /metrics of the node, or summed over the shards
	router counters // GET /metrics of the router
	jobs   int      // jobs made durable in the measured passes

	queueDepthMax int
	sealMissing   int
	// rowsPerGroup is frame rows / result groups over the uncached
	// /query2 answers, 0 when there were none.
	rowsPerGroup float64
}

func (e *env) setCounterMetrics(in counterInputs) {
	n, rt := in.node, in.router
	jobs := float64(in.jobs)

	e.set("service.queue_depth_max", float64(in.queueDepthMax))
	hits, misses := n.sum("granula_respcache_hits_total"), n.sum("granula_respcache_misses_total")
	e.set("service.respcache_hit_ratio", ratio(hits, hits+misses))
	e.set("service.respcache_evictions", n.sum("granula_respcache_evictions_total"))
	e.set("service.not_modified_ratio", ratio(n.sum("granula_respcache_not_modified_total"), hits+misses))
	qh, qm := n.sum("granula_querycache_hits_total"), n.sum("granula_querycache_misses_total")
	e.set("service.querycache_hit_ratio", ratio(qh, qh+qm))
	e.set("service.shed_total", n.sum("granula_shed_total"))
	e.set("service.retries_total", n.sum("granula_retries_total"))
	e.set("service.panics_total", n.sum("granula_panics_recovered_total"))

	fsyncs := n.sum("granula_groupcommit_fsyncs_total")
	e.set("archivedb.records_per_fsync", ratio(n.sum("granula_groupcommit_records_total"), fsyncs))
	e.set("archivedb.fsyncs_per_job", ratio(fsyncs, jobs))
	e.set("archivedb.wal_bytes_per_job", ratio(n.sum("granula_storage_wal_bytes"), jobs))
	e.set("archivedb.colseg_tail_reads", n.sum("granula_storage_colseg_tail_reads_total"))
	e.set("archivedb.colseg_full_reads", n.sum("granula_storage_colseg_full_reads_total"))

	scanned, pruned := n.sum("granula_query2_segments_scanned_total"), n.sum("granula_query2_segments_pruned_total")
	e.set("query.prune_ratio", ratio(pruned, scanned+pruned))
	e.set("query.rows_per_group", in.rowsPerGroup)

	e.set("stream.rejected_total", n.sum("granula_stream_ingest_rejected_total"))
	e.set("stream.watch_connections", n.sum("granula_watch_connections_total"))
	e.set("stream.seal_missing_total", float64(in.sealMissing))

	e.set("shard.acks_per_job", ratio(n.sum("granula_replication_acks_total", `outcome="ok"`), jobs))
	e.set("shard.quorum_missed", n.sum("granula_replication_quorum_total", `outcome="missed"`))
	e.set("shard.divergence_probes", rt.sum("granula_router_divergence_probes_total"))
	e.set("shard.read_repairs", rt.sum("granula_router_read_repairs_total"))
	e.set("shard.failovers", rt.sum("granula_router_failovers_total"))
	e.set("shard.hints_total", n.sum("granula_selfheal_hints_total", `event="recorded"`))
	e.set("shard.antientropy_rounds", n.sum("granula_selfheal_antientropy_total", `event="sweeps"`))

	// Server-side handler time per request, for the routes that were
	// called: it locates a client-side latency in the server or in the
	// client and the socket.
	for short, route := range handlerRoutes {
		label := `route="` + route + `"`
		if calls := n.sum("granula_http_request_duration_seconds_count", label); calls > 0 {
			e.set("service.handler_ms."+short, 1000*n.sum("granula_http_request_duration_seconds_sum", label)/calls)
		}
	}
	if acks := n.sum("granula_replication_quorum_seconds_count"); acks > 0 {
		e.set("shard.replicate_ms", 1000*n.sum("granula_replication_quorum_seconds_sum")/acks)
	}
}
