package shard

// Router scatter-gather for the analytical query engine v2. The
// router parses and validates the query once (a bad query fails fast
// without touching the cluster), fans GET /internal/query2 out to
// every shard concurrently, and merges the per-job partial aggregates
// with query.MergePartials — the same canonical fold a single node
// uses. MergePartials sorts partials by job ID and dedupes replicas
// (replicas hold byte-identical records, so their partials are
// byte-identical and keeping the first is well-defined), which makes
// the merged body independent of shard count, replication factor, and
// arrival order: byte-for-byte what one granula-serve holding every
// job would have written.
//
// Percentiles stay exact under distribution: partials carry the
// matched values, not a sketch, so the router computes the same
// nearest-rank percentile over the same sorted multiset as a single
// node. The trade-off is partial size ~ matched rows; a future sketch
// (t-digest) would cap it at the cost of exactness, and would need
// its own determinism argument. Sum/avg stay exact because merge
// order is fixed by the canonical fold, not because FP addition is
// associative (it is not).
//
// Unreachable shards — a transport error, a 5xx, an unreadable body —
// are skipped and named in X-Granula-Shards-Down: the merged result is
// the union of live shards' views, same contract as GET /jobs. A shard
// that refuses the query with a 4xx (one running an older query
// language, say) is not down: the first such shard in map order
// answers the client, its status and body relayed. Scanned/pruned
// counts are summed post-dedupe, so they too match the single-node
// answer.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"

	"repro/internal/query"
)

// handleQuery2 serves GET /query2 on the router.
func (rt *Router) handleQuery2(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("q")
	q, err := query.ParseQuery2(raw)
	if err != nil {
		writeRouterError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := rt.boundCtx(r)
	defer cancel()
	pathq := InternalQuery2Path + "?q=" + url.QueryEscape(raw)

	results := make([]proxyResult, len(rt.m.Shards))
	partials := make([][]query.JobPartial, len(rt.m.Shards))
	var wg sync.WaitGroup
	for i, n := range rt.m.Shards {
		wg.Add(1)
		go func(i int, n Node) {
			defer wg.Done()
			res := rt.forward(ctx, n, http.MethodGet, pathq, nil, r.Header)
			rt.observe(n, res)
			if res.err == nil && res.status == http.StatusOK {
				var sr struct {
					Partials []query.JobPartial `json:"partials"`
				}
				res.err = json.Unmarshal(res.body, &sr)
				partials[i] = sr.Partials
			}
			results[i] = res
		}(i, n)
	}
	wg.Wait()

	var all []query.JobPartial
	var down []string
	for i, res := range results {
		if res.err == nil && res.status >= 400 && res.status < 500 {
			rt.writeProxied(w, res)
			return
		}
		if res.err != nil || res.status != http.StatusOK {
			down = append(down, res.node.ID)
			continue
		}
		all = append(all, partials[i]...)
	}
	resp, err := q.MergePartials(raw, "jobs", "", all)
	if err != nil {
		writeRouterError(w, http.StatusInternalServerError, "merge partials: %v", err)
		return
	}
	body, err := query.RenderAggResponse(resp)
	if err != nil {
		writeRouterError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if len(down) > 0 {
		sort.Strings(down)
		w.Header()["X-Granula-Shards-Down"] = []string{fmt.Sprint(down)}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(ScannedHeader, strconv.Itoa(resp.Scanned))
	w.Header().Set(PrunedHeader, strconv.Itoa(resp.Pruned))
	w.Write(body)
}
