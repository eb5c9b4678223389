package shard_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
)

// TestClusterQuery2ByteEquivalence extends the determinism contract to
// cross-job aggregation: for the same jobs, /query2 bytes served by the
// router's scatter-gather (R=2, so every partial arrives twice and must
// be deduped) equal the bytes a single granula-serve node renders.
// Sharding, replication, and shard arrival order must be invisible in
// the body.
func TestClusterQuery2ByteEquivalence(t *testing.T) {
	metrics := service.NewMetrics()
	store, err := service.NewStoreWithOptions(nil, service.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exec := service.NewExecutorWith(2, 64, store, metrics, service.ExecutorOptions{HostParallelism: 1})
	defer exec.Shutdown(context.Background())
	single := httptest.NewServer(service.NewServerWith(exec, store, metrics, service.ServerOptions{}).Handler())
	defer single.Close()

	c := startCluster(t, clusterConfig{shards: 3, replication: 2, quorum: 2, nosync: true})

	reqs := []service.JobRequest{
		{ID: "q2-001", Platform: "Giraph", Algorithm: "BFS", Vertices: 150, Edges: 600, Seed: 1},
		{ID: "q2-002", Platform: "PowerGraph", Algorithm: "PageRank", Vertices: 150, Edges: 600, Seed: 2, Iterations: 4},
		{ID: "q2-003", Platform: "OpenG", Algorithm: "BFS", Vertices: 150, Edges: 600, Seed: 3},
		{ID: "q2-004", Platform: "Giraph", Algorithm: "SSSP", Vertices: 150, Edges: 600, Seed: 4},
		{ID: "q2-005", Platform: "PowerGraph", Algorithm: "WCC", Vertices: 150, Edges: 600, Seed: 5},
		{ID: "q2-006", Platform: "Giraph", Algorithm: "PageRank", Vertices: 150, Edges: 600, Seed: 6, Iterations: 4},
	}
	primaries := map[string]bool{}
	for _, req := range reqs {
		primaries[c.m.Owners(req.ID)[0].ID] = true
		if !postJob(single.URL, req) {
			t.Fatalf("single node rejected %s", req.ID)
		}
		if !postJob(c.rts.URL, req) {
			t.Fatalf("router rejected %s", req.ID)
		}
	}
	if len(primaries) < 2 {
		t.Fatalf("all jobs hash to one shard (%v); pick different IDs", primaries)
	}
	for _, req := range reqs {
		if !pollDone(single.URL, req.ID, 60*time.Second) {
			t.Fatalf("single node did not finish %s", req.ID)
		}
		if !pollDone(c.rts.URL, req.ID, 60*time.Second) {
			t.Fatalf("cluster did not finish %s", req.ID)
		}
	}

	queries := []string{
		`from jobs group by mission agg count, sum(duration), avg(duration), p95(duration)`,
		`from jobs where job.platform = Giraph group by job.algorithm agg count, max(job.runtime)`,
		`from jobs where mission = Superstep group by actor agg count, sum(duration) order by sum(duration) desc limit 5`,
		`from jobs top 3 job.platform by count`,
		`from jobs where start > 1000000000 group by mission`, // prunable everywhere
	}
	for _, raw := range queries {
		path := shard.Query2Path + "?" + url.Values{"q": {raw}}.Encode()
		wantCode, want, _ := mustGet(t, single.URL+path)
		gotCode, got, hdr := mustGet(t, c.rts.URL+path)
		if wantCode != http.StatusOK || gotCode != http.StatusOK {
			t.Fatalf("%q: single %d, routed %d: %s", raw, wantCode, gotCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%q: routed bytes differ from single-node bytes:\n%s\nvs\n%s", raw, got, want)
		}
		if down := hdr.Get("X-Granula-Shards-Down"); down != "" {
			t.Fatalf("%q: shards down: %s", raw, down)
		}
		// Post-dedupe accounting: R=2 delivers ~2N partials, but the
		// merged counts must describe the N distinct jobs, same as the
		// single node would report.
		scanned, _ := strconv.Atoi(hdr.Get(shard.ScannedHeader))
		pruned, _ := strconv.Atoi(hdr.Get(shard.PrunedHeader))
		if scanned+pruned != len(reqs) {
			t.Fatalf("%q: scanned %d + pruned %d != %d distinct jobs", raw, scanned, pruned, len(reqs))
		}
	}

	// Validation parity: the router rejects what a shard would reject,
	// without fanning out garbage.
	for _, raw := range []string{``, `mission = X`, `group by mission`, `from jobs where (`} {
		path := shard.Query2Path + "?" + url.Values{"q": {raw}}.Encode()
		code, body, _ := mustGet(t, c.rts.URL+path)
		if code != http.StatusBadRequest {
			t.Fatalf("%q through router: %d: %s", raw, code, body)
		}
	}
}
