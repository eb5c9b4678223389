package shard

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// RouterMetrics is the router's operational counter set, exposed on the
// router's own /metrics as the granula_router_* family.
type RouterMetrics struct {
	mu         sync.Mutex
	requests   map[string]uint64             // proxied requests by shard
	failovers  map[string]uint64             // requests failed away from a shard
	latency    map[string]*metrics.Histogram // proxy latency by shard
	repairs    uint64                        // read-repairs dispatched
	probes     uint64                        // divergence probes issued
	divergent  uint64                        // probes that found divergent ETags
	exhausted  uint64                        // requests that ran out of replicas
	promotions uint64                        // writes routed past a Down primary
}

// NewRouterMetrics returns an empty router metrics set.
func NewRouterMetrics() *RouterMetrics {
	return &RouterMetrics{
		requests:  map[string]uint64{},
		failovers: map[string]uint64{},
		latency:   map[string]*metrics.Histogram{},
	}
}

func (m *RouterMetrics) countRequest(shard string, seconds float64) {
	m.mu.Lock()
	m.requests[shard]++
	h, ok := m.latency[shard]
	if !ok {
		h = &metrics.Histogram{}
		m.latency[shard] = h
	}
	h.Observe(seconds)
	m.mu.Unlock()
}

func (m *RouterMetrics) countFailover(shard string) {
	m.mu.Lock()
	m.failovers[shard]++
	m.mu.Unlock()
}

func (m *RouterMetrics) countRepair() {
	m.mu.Lock()
	m.repairs++
	m.mu.Unlock()
}

func (m *RouterMetrics) countProbe(divergent bool) {
	m.mu.Lock()
	m.probes++
	if divergent {
		m.divergent++
	}
	m.mu.Unlock()
}

func (m *RouterMetrics) countExhausted() {
	m.mu.Lock()
	m.exhausted++
	m.mu.Unlock()
}

func (m *RouterMetrics) countPromotion() {
	m.mu.Lock()
	m.promotions++
	m.mu.Unlock()
}

// Promotions returns how many writes were routed past a Down primary to
// the next ring owner.
func (m *RouterMetrics) Promotions() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.promotions
}

// Failovers returns the total requests failed away from any shard.
func (m *RouterMetrics) Failovers() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, v := range m.failovers {
		n += v
	}
	return n
}

// Repairs returns the read-repairs dispatched.
func (m *RouterMetrics) Repairs() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.repairs
}

// Divergences returns (probes issued, divergent ETags found).
func (m *RouterMetrics) Divergences() (probes, divergent uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.probes, m.divergent
}

// WritePrometheus renders the router family in Prometheus text format,
// shards sorted so the output is byte-deterministic for a given state.
func (m *RouterMetrics) WritePrometheus(w io.Writer, mapVersion uint64, shards int) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP granula_router_shards Shards in the active map.")
	fmt.Fprintln(w, "# TYPE granula_router_shards gauge")
	fmt.Fprintf(w, "granula_router_shards %d\n", shards)
	fmt.Fprintln(w, "# HELP granula_router_map_version Active shard-map version.")
	fmt.Fprintln(w, "# TYPE granula_router_map_version gauge")
	fmt.Fprintf(w, "granula_router_map_version %d\n", mapVersion)

	fmt.Fprintln(w, "# HELP granula_router_requests_total Requests proxied to each shard.")
	fmt.Fprintln(w, "# TYPE granula_router_requests_total counter")
	for _, id := range sortedKeys(m.requests) {
		fmt.Fprintf(w, "granula_router_requests_total{shard=%q} %d\n", id, m.requests[id])
	}

	fmt.Fprintln(w, "# HELP granula_router_failovers_total Requests failed away from a shard to the next replica.")
	fmt.Fprintln(w, "# TYPE granula_router_failovers_total counter")
	for _, id := range sortedKeys(m.failovers) {
		fmt.Fprintf(w, "granula_router_failovers_total{shard=%q} %d\n", id, m.failovers[id])
	}

	fmt.Fprintln(w, "# HELP granula_router_read_repairs_total Read-repairs dispatched to stale or missing replicas.")
	fmt.Fprintln(w, "# TYPE granula_router_read_repairs_total counter")
	fmt.Fprintf(w, "granula_router_read_repairs_total %d\n", m.repairs)

	fmt.Fprintln(w, "# HELP granula_router_divergence_probes_total Background replica ETag comparisons (and how many diverged).")
	fmt.Fprintln(w, "# TYPE granula_router_divergence_probes_total counter")
	fmt.Fprintf(w, "granula_router_divergence_probes_total{outcome=\"clean\"} %d\n", m.probes-m.divergent)
	fmt.Fprintf(w, "granula_router_divergence_probes_total{outcome=\"divergent\"} %d\n", m.divergent)

	fmt.Fprintln(w, "# HELP granula_router_exhausted_total Requests that failed on every replica.")
	fmt.Fprintln(w, "# TYPE granula_router_exhausted_total counter")
	fmt.Fprintf(w, "granula_router_exhausted_total %d\n", m.exhausted)

	fmt.Fprintln(w, "# HELP granula_router_promotions_total Writes routed past a Down primary to the next ring owner.")
	fmt.Fprintln(w, "# TYPE granula_router_promotions_total counter")
	fmt.Fprintf(w, "granula_router_promotions_total %d\n", m.promotions)

	shardsSorted := make([]string, 0, len(m.latency))
	for id := range m.latency {
		shardsSorted = append(shardsSorted, id)
	}
	sort.Strings(shardsSorted)
	fmt.Fprintln(w, "# HELP granula_router_request_seconds Proxy latency by shard.")
	fmt.Fprintln(w, "# TYPE granula_router_request_seconds histogram")
	for _, id := range shardsSorted {
		m.latency[id].Write(w, "granula_router_request_seconds", fmt.Sprintf("shard=%q,", id))
	}
}
