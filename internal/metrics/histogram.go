package metrics

import (
	"fmt"
	"io"
	"strconv"
)

// latencyBuckets are the histogram's bucket upper bounds in seconds.
// They span sub-millisecond JSON handlers to multi-second simulation
// submissions, and are the same for every latency the serving layers
// export so dashboards line up.
var latencyBuckets = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is the cumulative fixed-bucket latency histogram behind
// every /metrics histogram: granula-serve's per-route request latency,
// the router's per-shard proxy latency, and the replication quorum
// wait. It lives in this package because both internal/service and
// internal/shard can import it without importing each other. The zero
// value is empty and ready; callers synchronize access.
type Histogram struct {
	counts [len(latencyBuckets)]uint64
	sum    float64
	count  uint64
}

// Observe records one value, in seconds.
func (h *Histogram) Observe(v float64) {
	for i, ub := range latencyBuckets {
		if v <= ub {
			h.counts[i]++
		}
	}
	h.sum += v
	h.count++
}

// Write renders the histogram's samples in Prometheus text format under
// name. labels, when non-empty, is a rendered label-pair prefix (e.g.
// `shard="s1",`) merged into every sample's label set. The # HELP and
// # TYPE header is the caller's job, since one metric name is written
// for several label values.
func (h *Histogram) Write(w io.Writer, name, labels string) {
	for i, ub := range latencyBuckets {
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labels, strconv.FormatFloat(ub, 'g', -1, 64), h.counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, h.count)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, strconv.FormatFloat(h.sum, 'g', -1, 64))
		fmt.Fprintf(w, "%s_count %d\n", name, h.count)
	} else {
		trimmed := labels[:len(labels)-1] // drop the trailing comma
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, trimmed, strconv.FormatFloat(h.sum, 'g', -1, 64))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, trimmed, h.count)
	}
}
