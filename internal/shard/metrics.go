package shard

import (
	"io"

	"repro/internal/metrics"
)

// RouterMetrics declares the router's operational counter set, exposed
// on the router's own /metrics as the granula_router_* family in the
// order newRouterMetrics declares it, shards sorted, so the output is
// byte-deterministic for a given state.
type RouterMetrics struct {
	reg        *metrics.Registry
	shardMap   *metrics.Sampled     // shards and map version, bound by NewRouter
	requests   metrics.CounterVec   // proxied requests by shard
	failovers  metrics.CounterVec   // requests failed away from a shard
	repairs    *metrics.Counter     // read-repairs dispatched
	exhausted  *metrics.Counter     // requests that ran out of replicas
	promotions *metrics.Counter     // writes routed past a Down primary
	latency    metrics.HistogramVec // proxy latency by shard

	// Divergence probes by outcome.
	probesClean     *metrics.Counter
	probesDivergent *metrics.Counter
}

// newRouterMetrics returns an empty router metrics set.
func newRouterMetrics() *RouterMetrics {
	r := metrics.NewRegistry()
	m := &RouterMetrics{reg: r}
	m.shardMap = r.Sampled()
	m.requests = r.CounterVec("granula_router_requests_total", "Requests proxied to each shard.", "shard")
	m.failovers = r.CounterVec("granula_router_failovers_total", "Requests failed away from a shard to the next replica.", "shard")
	m.repairs = r.Counter("granula_router_read_repairs_total", "Read-repairs dispatched to stale or missing replicas.")
	probes := r.CounterVec("granula_router_divergence_probes_total", "Background replica ETag comparisons (and how many diverged).", "outcome", "clean", "divergent")
	m.probesClean, m.probesDivergent = probes.With("clean"), probes.With("divergent")
	m.exhausted = r.Counter("granula_router_exhausted_total", "Requests that failed on every replica.")
	m.promotions = r.Counter("granula_router_promotions_total", "Writes routed past a Down primary to the next ring owner.")
	m.latency = r.HistogramVec("granula_router_request_seconds", "Proxy latency by shard.", "shard")
	return m
}

// writeShardMap is the sampler body of RouterMetrics.shardMap.
func writeShardMap(e *metrics.Emitter, m *Map) {
	e.Gauge("granula_router_shards", "Shards in the active map.", int64(len(m.Shards)))
	e.Gauge("granula_router_map_version", "Active shard-map version.", int64(m.Version))
}

// writePrometheus renders the router family in Prometheus text format.
func (m *RouterMetrics) writePrometheus(w io.Writer) { m.reg.Write(w) }
